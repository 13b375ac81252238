// Verbatim seed Router and Fabric loops (see the header for the oracle
// policy). Only the class name ReferenceFabric differs from the pre-flat
// implementation.
#include "support/reference_fabric.hpp"

#include <array>

#include "util/check.hpp"

namespace renoc {

Router::Router(int node, const GridDim& dim, int buffer_depth)
    : node_(node),
      dim_(dim),
      coord_(index_to_coord(node, dim)),
      buffer_depth_(buffer_depth) {
  RENOC_CHECK(buffer_depth_ >= 1);
  for (int d = 0; d < kDirectionCount; ++d) {
    owner_input_[d] = -1;
    owner_packet_[d] = 0;
    rr_pointer_[d] = 0;
  }
}

int Router::fifo_space(int port) const {
  RENOC_CHECK(port >= 0 && port < kDirectionCount);
  return buffer_depth_ - static_cast<int>(fifo_[port].size());
}

bool Router::fifo_empty(int port) const {
  RENOC_CHECK(port >= 0 && port < kDirectionCount);
  return fifo_[port].empty();
}

int Router::fifo_occupancy(int port) const {
  RENOC_CHECK(port >= 0 && port < kDirectionCount);
  return static_cast<int>(fifo_[port].size());
}

void Router::push(int port, const Flit& flit) {
  RENOC_CHECK_MSG(fifo_space(port) > 0, "FIFO overflow at node "
                                            << node_ << " port " << port
                                            << " — credit protocol violated");
  fifo_[port].push_back(flit);
}

Flit Router::pop(int port) {
  RENOC_CHECK(port >= 0 && port < kDirectionCount);
  RENOC_CHECK(!fifo_[port].empty());
  Flit f = fifo_[port].front();
  fifo_[port].pop_front();
  return f;
}

int Router::arbitrate(const bool credit_ok[kDirectionCount],
                      std::vector<PlannedMove>& out) {
  int new_allocations = 0;
  for (int o = 0; o < kDirectionCount; ++o) {
    const Direction out_dir = static_cast<Direction>(o);
    if (owner_input_[o] >= 0) {
      // Wormhole continuation: move the next flit of the owning packet if
      // it has arrived and the downstream FIFO can take it.
      const int in = owner_input_[o];
      if (!fifo_[in].empty() &&
          fifo_[in].front().packet == owner_packet_[o] && credit_ok[o]) {
        out.push_back(PlannedMove{node_, in, out_dir});
      }
      continue;
    }
    if (!credit_ok[o]) continue;
    // Round-robin over inputs looking for a head flit routed to this output.
    for (int k = 1; k <= kDirectionCount; ++k) {
      const int in = (rr_pointer_[o] + k) % kDirectionCount;
      if (fifo_[in].empty()) continue;
      const Flit& head = fifo_[in].front();
      if (!head.is_head()) continue;  // body/tail of a stalled packet
      const GridCoord dst = index_to_coord(head.dst, dim_);
      if (xy_route(coord_, dst) != out_dir) continue;
      out.push_back(PlannedMove{node_, in, out_dir});
      owner_input_[o] = in;
      owner_packet_[o] = head.packet;
      rr_pointer_[o] = in;
      ++new_allocations;
      break;
    }
  }
  return new_allocations;
}

void Router::release_output(Direction out_port) {
  owner_input_[static_cast<int>(out_port)] = -1;
  owner_packet_[static_cast<int>(out_port)] = 0;
}

bool Router::quiescent() const {
  for (int p = 0; p < kDirectionCount; ++p)
    if (!fifo_[p].empty()) return false;
  for (int o = 0; o < kDirectionCount; ++o)
    if (owner_input_[o] >= 0) return false;
  return true;
}

int Router::buffered_flits() const {
  int n = 0;
  for (int p = 0; p < kDirectionCount; ++p)
    n += static_cast<int>(fifo_[p].size());
  return n;
}

ReferenceFabric::ReferenceFabric(const NocConfig& config)
    : config_(config),
      nis_(static_cast<std::size_t>(config.dim.node_count())),
      credits_(static_cast<std::size_t>(config.dim.node_count())),
      stats_(config.dim.node_count()) {
  config_.validate();
  routers_.reserve(static_cast<std::size_t>(node_count()));
  for (int i = 0; i < node_count(); ++i)
    routers_.emplace_back(i, config_.dim, config_.buffer_depth);
  for (auto& c : credits_) c.fill(config_.buffer_depth);
}

void ReferenceFabric::send(const Message& msg) {
  RENOC_CHECK_MSG(msg.src >= 0 && msg.src < node_count(),
                  "bad src " << msg.src);
  RENOC_CHECK_MSG(msg.dst >= 0 && msg.dst < node_count(),
                  "bad dst " << msg.dst);
  nis_[static_cast<std::size_t>(msg.src)].send_queue.push_back(msg);
}

std::optional<Message> ReferenceFabric::try_receive(int node) {
  RENOC_CHECK(node >= 0 && node < node_count());
  auto& ni = nis_[static_cast<std::size_t>(node)];
  if (ni.delivered.empty()) return std::nullopt;
  Message m = std::move(ni.delivered.front());
  ni.delivered.pop_front();
  return m;
}

void ReferenceFabric::stage_next_message(int node) {
  auto& ni = nis_[static_cast<std::size_t>(node)];
  if (ni.send_queue.empty()) return;
  const Message msg = std::move(ni.send_queue.front());
  ni.send_queue.pop_front();

  const PacketId pid = next_packet_id_++;
  const int nflits = msg.flit_count();
  ni.staged_flits.clear();
  ni.staged_pos = 0;
  ni.staged_flits.reserve(static_cast<std::size_t>(nflits));
  for (int i = 0; i < nflits; ++i) {
    Flit f;
    f.packet = pid;
    f.src = msg.src;
    f.dst = msg.dst;
    f.seq = static_cast<std::uint32_t>(i);
    f.payload = msg.payload.empty() ? 0
                                    : msg.payload[static_cast<std::size_t>(i)];
    f.tag = msg.tag;
    f.injected_at = now_;
    if (nflits == 1) {
      f.type = FlitType::kHeadTail;
    } else if (i == 0) {
      f.type = FlitType::kHead;
    } else if (i == nflits - 1) {
      f.type = FlitType::kTail;
    } else {
      f.type = FlitType::kBody;
    }
    ni.staged_flits.push_back(f);
  }
}

void ReferenceFabric::eject_flit(int node, const Flit& flit) {
  auto& ni = nis_[static_cast<std::size_t>(node)];
  ++stats_.tile(node).ejected_flits;
  auto& partial = ni.partial[flit.packet];
  if (flit.is_head()) {
    partial.msg.src = flit.src;
    partial.msg.dst = flit.dst;
    partial.msg.tag = flit.tag;
    partial.head_injected_at = flit.injected_at;
  }
  partial.msg.payload.push_back(flit.payload);
  ++partial.flits;
  if (flit.is_tail()) {
    // A message sent with an empty payload occupies one flit and is
    // delivered with a single zero word (the wire cannot distinguish the
    // two; see Message::flit_count).
    stats_.note_packet_delivered(partial.flits,
                                 now_ - partial.head_injected_at);
    ni.delivered.push_back(std::move(partial.msg));
    ni.partial.erase(flit.packet);
  }
}

void ReferenceFabric::step() {
  ++now_;

  // --- Phase 1: arbitration over the pre-cycle state --------------------
  planned_.clear();
  for (int n = 0; n < node_count(); ++n) {
    bool credit_ok[kDirectionCount];
    for (int d = 0; d < 4; ++d)
      credit_ok[d] = credits_[static_cast<std::size_t>(n)][
                         static_cast<std::size_t>(d)] > 0;
    credit_ok[static_cast<int>(Direction::kLocal)] = true;  // ideal ejection
    const int allocs = routers_[static_cast<std::size_t>(n)].arbitrate(
        credit_ok, planned_);
    stats_.tile(n).arbitrations += static_cast<std::uint64_t>(allocs);
  }

  // --- Phase 2: commit all planned moves --------------------------------
  for (const PlannedMove& mv : planned_) {
    Router& r = routers_[static_cast<std::size_t>(mv.node)];
    const Flit flit = r.pop(mv.in_port);
    TileActivity& act = stats_.tile(mv.node);
    ++act.buffer_reads;
    ++act.crossbar_traversals;

    // Credit return toward the upstream router (not for local injection).
    if (mv.in_port != static_cast<int>(Direction::kLocal)) {
      const Direction from = static_cast<Direction>(mv.in_port);
      const GridCoord up = neighbor(r.coord(), from);
      const int up_node = coord_to_index(up, config_.dim);
      const int up_out = static_cast<int>(opposite(from));
      ++credits_[static_cast<std::size_t>(up_node)][
          static_cast<std::size_t>(up_out)];
    }

    if (mv.out == Direction::kLocal) {
      eject_flit(mv.node, flit);
      if (flit.is_tail()) r.release_output(Direction::kLocal);
    } else {
      const GridCoord down = neighbor(r.coord(), mv.out);
      const int down_node = coord_to_index(down, config_.dim);
      Router& dr = routers_[static_cast<std::size_t>(down_node)];
      dr.push(static_cast<int>(opposite(mv.out)), flit);
      ++stats_.tile(down_node).buffer_writes;
      ++act.link_flits;
      --credits_[static_cast<std::size_t>(mv.node)][
          static_cast<std::size_t>(static_cast<int>(mv.out))];
      if (flit.is_tail()) r.release_output(mv.out);
    }
  }

  // --- Phase 3: injection ------------------------------------------------
  inject_phase();
}

void ReferenceFabric::inject_phase() {
  const int local = static_cast<int>(Direction::kLocal);
  for (int n = 0; n < node_count(); ++n) {
    auto& ni = nis_[static_cast<std::size_t>(n)];
    if (!ni.enabled) continue;
    if (ni.staged_pos >= ni.staged_flits.size()) stage_next_message(n);
    if (ni.staged_pos >= ni.staged_flits.size()) continue;
    Router& r = routers_[static_cast<std::size_t>(n)];
    if (r.fifo_space(local) <= 0) continue;
    r.push(local, ni.staged_flits[ni.staged_pos++]);
    TileActivity& act = stats_.tile(n);
    ++act.injected_flits;
    ++act.buffer_writes;
  }
}

void ReferenceFabric::run(int n) {
  RENOC_CHECK(n >= 0);
  for (int i = 0; i < n; ++i) step();
}

int ReferenceFabric::drain(int max_cycles) {
  for (int i = 0; i < max_cycles; ++i) {
    if (idle()) return i;
    step();
  }
  RENOC_CHECK_MSG(idle(), "network failed to drain in " << max_cycles
                                                        << " cycles");
  return max_cycles;
}

bool ReferenceFabric::idle() const {
  for (const Router& r : routers_)
    if (!r.quiescent()) return false;
  for (const auto& ni : nis_) {
    if (!ni.send_queue.empty()) return false;
    if (ni.staged_pos < ni.staged_flits.size()) return false;
    if (!ni.partial.empty()) return false;
  }
  return true;
}

void ReferenceFabric::set_injection_enabled(int node, bool enabled) {
  RENOC_CHECK(node >= 0 && node < node_count());
  nis_[static_cast<std::size_t>(node)].enabled = enabled;
}

bool ReferenceFabric::injection_enabled(int node) const {
  RENOC_CHECK(node >= 0 && node < node_count());
  return nis_[static_cast<std::size_t>(node)].enabled;
}

}  // namespace renoc
