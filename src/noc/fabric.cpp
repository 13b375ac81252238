#include "noc/fabric.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "util/check.hpp"

namespace renoc {

namespace {

constexpr int kLocal = static_cast<int>(Direction::kLocal);

// opposite() as a table over the four mesh directions (N<->S, E<->W); the
// commit loop runs it per flit hop.
constexpr int kOppositeDir[4] = {1, 0, 3, 2};

// Payload buffers kept for reuse; beyond this the pool just frees. High
// enough that real workloads never hit it, low enough to bound memory if a
// caller recycles far more than it sends.
constexpr std::size_t kPayloadPoolCap = 16384;

// FlitType bit 0 marks a head flit and bit 1 a tail flit.
bool is_head(FlitType t) { return (static_cast<unsigned>(t) & 1u) != 0; }
bool is_tail(FlitType t) { return (static_cast<unsigned>(t) & 2u) != 0; }
/// Type of flit `i` of an `n`-flit packet.
FlitType flit_type(int i, int n) {
  return static_cast<FlitType>((i == 0 ? 1u : 0u) | (i + 1 == n ? 2u : 0u));
}

std::uint64_t node_bit(std::size_t n) { return std::uint64_t{1} << (n % 64); }

const NocConfig& validated(const NocConfig& config) {
  config.validate();
  return config;
}

}  // namespace

void NocConfig::validate() const {
  RENOC_CHECK_MSG(dim.width >= 2 && dim.height >= 2,
                  "mesh must be at least 2x2, got " << to_string(dim));
  const std::int64_t nodes = std::int64_t{dim.width} * dim.height;
  RENOC_CHECK_MSG(nodes <= kMaxFabricNodes,
                  "mesh " << to_string(dim) << " has " << nodes
                          << " nodes; the fabric simulates at most "
                          << kMaxFabricNodes);
  RENOC_CHECK(buffer_depth >= 1);
  RENOC_CHECK(clock_hz > 0);
}

void DeliveryGuardConfig::validate() const {
  RENOC_CHECK_MSG(retry_budget >= 0,
                  "retry budget must be >= 0, got " << retry_budget);
  RENOC_CHECK(timeout_cycles >= 1);
  RENOC_CHECK(backoff_shift_cap >= 0 && backoff_shift_cap < 32);
}

void Fabric::MessageRing::grow() {
  std::vector<Message> bigger(buf.empty() ? 4 : buf.size() * 2);
  for (std::size_t i = 0; i < count; ++i) {
    std::size_t src = head + i;
    if (src >= buf.size()) src -= buf.size();
    bigger[i] = std::move(buf[src]);
  }
  buf = std::move(bigger);
  head = 0;
}

Fabric::Fabric(const NocConfig& config)
    : config_(validated(config)), stats_(config.dim.node_count()) {
  depth_ = config_.buffer_depth;
  const int n = node_count();
  const std::size_t nodes = static_cast<std::size_t>(n);
  nodes_ = nodes;
  const std::size_t ports = nodes * kDirectionCount;
  // A live packet has a flit buffered somewhere or is its NI's staged one.
  const std::size_t max_packets =
      ports * static_cast<std::size_t>(depth_) + nodes;
  RENOC_CHECK_MSG(max_packets <= 0xffffffffu,
                  "buffer depth " << depth_
                                  << " overflows 32-bit packet slots");

  arena_.resize(ports * static_cast<std::size_t>(depth_));
  fifo_head_.assign(ports, 0);
  fifo_size_.assign(ports, 0);
  req_out_.assign(ports, kNoRequest);
  // One spare credit counter past the mesh outputs absorbs the returns of
  // inputs with no upstream router (local injection, mesh edges).
  credits_.assign(nodes * 4 + 1, depth_);
  credit_return_.assign(ports, static_cast<int>(nodes * 4));
  owner_input_.assign(ports, 0);
  owner_packet_.assign(ports, 0);
  granted_.assign(nodes, 0);
  rr_pointer_.assign(ports, 0);
  node_buffered_.assign(nodes, 0);
  busy_.assign((nodes + 63) / 64, 0);
  nis_.resize(nodes);
  ni_work_.assign((nodes + 63) / 64, 0);
  packets_.reserve(max_packets);
  free_packets_.reserve(max_packets);
  payload_pool_.reserve(256);
  planned_.reserve(ports);  // hard cap: one move per output port per cycle

  // Topology tables: downstream node per mesh output, and the XY-routing
  // decision for every (here, dst) pair. Both replace per-flit coordinate
  // arithmetic in the hot loops with a single indexed load.
  neighbor_node_.assign(nodes * 4, -1);
  route_table_.assign(nodes * nodes, static_cast<std::uint8_t>(kLocal));
  for (int node = 0; node < n; ++node) {
    const GridCoord here = index_to_coord(node, config_.dim);
    for (int d = 0; d < 4; ++d) {
      const GridCoord nb = neighbor(here, static_cast<Direction>(d));
      if (!in_bounds(nb, config_.dim)) continue;
      const int up = coord_to_index(nb, config_.dim);
      neighbor_node_[static_cast<std::size_t>(node) * 4 +
                     static_cast<std::size_t>(d)] = up;
      credit_return_[port_index(node, d)] = up * 4 + kOppositeDir[d];
    }
    for (int dst = 0; dst < n; ++dst)
      route_table_[static_cast<std::size_t>(node) * nodes +
                   static_cast<std::size_t>(dst)] =
          static_cast<std::uint8_t>(
              xy_route(here, index_to_coord(dst, config_.dim)));
  }
}

std::uint8_t Fabric::request_of(int node, std::size_t f,
                                FlitHandle front) const {
  // renoc-hot-begin (whenever a FIFO's front changes)
  // The XY table serves the zero-fault fabric; after the first topology
  // change the per-input west-first table takes over (the input port
  // encodes the travel direction its turn restriction needs). An
  // unreachable head parks: kUnreachableRoute is kNoRequest, and the purge
  // removes such heads at the epoch that strands them. A body or tail
  // flit follows its packet's wormhole grant; routing it again after an
  // epoch changed its route could grant it a second output.
  const std::uint8_t out =
      adaptive_active_
          ? adaptive_table_[f * nodes_ + front.dst]
          : route_table_[static_cast<std::size_t>(node) * nodes_ + front.dst];
  return is_head(front.type) ? out : kNoRequest;
  // renoc-hot-end
}

void Fabric::push_flit(int node, int port, FlitHandle flit) {
  // renoc-hot-begin (once per link traversal, every cycle)
  const std::size_t f = port_index(node, port);
  RENOC_CHECK_MSG(fifo_size_[f] < depth_, "FIFO overflow at node "
                                              << node << " port " << port
                                              << " — credit protocol violated");
  // Conditional wrap, not %: depth_ is a runtime value, so modulo would
  // cost an integer division on every ring operation.
  const int end = fifo_head_[f] + fifo_size_[f];
  const int slot = end >= depth_ ? end - depth_ : end;
  arena_[f * static_cast<std::size_t>(depth_) +
         static_cast<std::size_t>(slot)] = flit;
  // Selects rather than branches: whether the FIFO was empty is a coin
  // flip the predictor loses.
  const std::uint8_t request = request_of(node, f, flit);
  req_out_[f] = ++fifo_size_[f] == 1 ? request : req_out_[f];
  const std::size_t n = static_cast<std::size_t>(node);
  ++node_buffered_[n];
  busy_[n / 64] |= node_bit(n);
  // renoc-hot-end
}

/// Advances FIFO f past its front flit (caller has already consumed it).
void Fabric::pop_front(int node, std::size_t f) {
  // renoc-hot-begin (once per forwarded flit, every cycle)
  const int head = fifo_head_[f] + 1 == depth_ ? 0 : fifo_head_[f] + 1;
  fifo_head_[f] = head;
  // The slot past the old front holds a valid (if stale) handle even when
  // the FIFO is now empty, so the new request is computed unconditionally
  // and selected.
  const std::uint8_t request = request_of(
      node, f,
      arena_[f * static_cast<std::size_t>(depth_) +
             static_cast<std::size_t>(head)]);
  req_out_[f] = --fifo_size_[f] > 0 ? request : kNoRequest;
  const std::size_t n = static_cast<std::size_t>(node);
  busy_[n / 64] &= ~(static_cast<std::uint64_t>(--node_buffered_[n] == 0)
                     << (n % 64));
  // renoc-hot-end
}

void Fabric::send(const Message& msg) {
  send(Message(msg));
}

void Fabric::send(Message&& msg) {
  RENOC_CHECK_MSG(msg.src >= 0 && msg.src < node_count(),
                  "bad src " << msg.src);
  RENOC_CHECK_MSG(msg.dst >= 0 && msg.dst < node_count(),
                  "bad dst " << msg.dst);
  const std::size_t src = static_cast<std::size_t>(msg.src);
  nis_[src].send_queue.push(std::move(msg));
  if (!degraded_) ni_work_[src / 64] |= std::uint64_t{1} << (src % 64);
}

std::optional<Message> Fabric::try_receive(int node) {
  RENOC_CHECK(node >= 0 && node < node_count());
  auto& ni = nis_[static_cast<std::size_t>(node)];
  if (ni.delivered.empty()) return std::nullopt;
  --unread_;
  return ni.delivered.pop();
}

void Fabric::recycle(Message&& msg) { recycle_payload(msg.payload); }

/// Moves a payload buffer into the pool (or frees it once the pool is
/// full), leaving `payload` empty without capacity.
void Fabric::recycle_payload(std::vector<std::uint64_t>& payload) {
  if (payload_pool_.size() >= kPayloadPoolCap) {
    std::vector<std::uint64_t>().swap(payload);
    return;
  }
  payload.clear();
  payload_pool_.push_back(std::move(payload));
}

Message Fabric::acquire_message() {
  Message m;
  if (!payload_pool_.empty()) {
    m.payload = std::move(payload_pool_.back());
    payload_pool_.pop_back();
    m.payload.clear();
  }
  return m;
}

/// Opens a packet-store record for `msg` under the next PacketId; the
/// caller fills its payload.
std::uint32_t Fabric::open_packet(const Message& msg, std::uint32_t msg_seq) {
  // renoc-hot-begin (once per packet)
  std::uint32_t slot;
  if (!free_packets_.empty()) {
    slot = free_packets_.back();
    free_packets_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(packets_.size());
    // renoc-lint-allow(hot-alloc): new high water, within the ctor's reserve
    packets_.emplace_back();
  }
  PacketRecord& p = packets_[slot];
  p.pid = next_packet_id_++;
  p.tag = msg.tag;
  p.staged_at = now_;
  p.src = msg.src;
  p.dst = msg.dst;
  p.msg_seq = msg_seq;
  return slot;
  // renoc-hot-end
}

/// Returns a record whose payload has been moved out or recycled.
void Fabric::free_packet(std::uint32_t slot) {
  PacketRecord& p = packets_[slot];
  p.pid = 0;
  p.reassembling = false;
  p.discarding = false;
  p.doomed = false;
  free_packets_.push_back(slot);
}

void Fabric::start_injection(NetworkInterface& ni, std::uint32_t slot) {
  const PacketRecord& p = packets_[slot];
  ni.packet = slot;
  ni.flits = p.payload.empty() ? 1 : static_cast<int>(p.payload.size());
  ni.next_flit = 0;
}

void Fabric::stage_next_message(int node) {
  auto& ni = nis_[static_cast<std::size_t>(node)];
  if (ni.send_queue.empty()) return;
  Message msg = ni.send_queue.pop();
  const std::uint32_t slot = open_packet(msg, ++ni.next_msg_seq);
  // The sent buffer travels with the packet to its delivery.
  packets_[slot].payload = std::move(msg.payload);
  start_injection(ni, slot);
}

void Fabric::eject_flit(int node, FlitHandle flit, TileActivity* tiles) {
  // renoc-hot-begin (once per flit reaching its destination)
  ++tiles[node].ejected_flits;
  PacketRecord& p = packets_[flit.packet];
  if (degraded_) note_flit_left_network(p);
  const std::size_t pair =
      static_cast<std::size_t>(node) * nodes_ + static_cast<std::size_t>(p.src);
  if (is_head(flit.type)) {
    if (degraded_ && p.msg_seq != 0 &&
        p.msg_seq <= last_seq_delivered_[pair]) {
      // Retransmission duplicate: the original was delivered, but its
      // delivery notice was still in flight when the source's timeout
      // fired. Swallow the whole packet; count it at the tail.
      p.discarding = true;
    } else {
      p.reassembling = true;
      ++partial_count_;
    }
  }
  if (!is_tail(flit.type)) return;
  if (p.discarding) {
    stats_.note_duplicate_suppressed();
    recycle_payload(p.payload);
  } else {
    Message& msg = nis_[static_cast<std::size_t>(node)].delivered.push_slot();
    msg.src = p.src;
    msg.dst = node;
    msg.tag = p.tag;
    msg.payload = std::move(p.payload);
    if (msg.payload.empty()) {
      // A message sent with an empty payload occupies one flit and is
      // delivered with a single zero word (the wire cannot distinguish the
      // two; see Message::flit_count).
      if (msg.payload.capacity() == 0 && !payload_pool_.empty()) {
        msg.payload.swap(payload_pool_.back());
        payload_pool_.pop_back();
      }
      // renoc-lint-allow(hot-alloc): one word into a sent or pooled buffer
      msg.payload.push_back(0);
    }
    const int flits = static_cast<int>(msg.payload.size());
    const Cycle latency = now_ - p.staged_at;
    stats_.note_packet_delivered(flits, latency);
    if (log_deliveries_)
      // renoc-lint-allow(hot-alloc): grows to the longest marked stretch
      delivery_log_.push_back(Delivery{latency, flits});
    ++unread_;
    --partial_count_;
    if (degraded_) {
      last_seq_delivered_[pair] = p.msg_seq;
      // Delivery notice toward the source: the tracker resolves once the
      // notice lands (ack_latency_cycles later). Keyed by msg_seq, not
      // PacketId — the delivering attempt may be older than the tracked
      // one when a retransmission is already in flight.
      auto& sni = nis_[static_cast<std::size_t>(p.src)];
      if (sni.tracked_active && sni.tracked_seq == p.msg_seq &&
          sni.tracked_ack_at == kNoAck)
        sni.tracked_ack_at = now_ + guard_.ack_latency_cycles;
    }
  }
  free_packet(flit.packet);
  // renoc-hot-end
}

void Fabric::step() {
  ++now_;
  // Topology-change epochs: fault events due this cycle apply now, bump
  // the route epoch, rebuild the adaptive tables, and purge stranded
  // packets — all before (outside) the annotated hot region below.
  if (degraded_ && next_fault_ < fault_events_.size() &&
      fault_events_[next_fault_].cycle <= now_)
    apply_due_faults();
  // Contiguous tile counters, hoisted past tile()'s per-call bounds check
  // (every index below is a valid node).
  TileActivity* const tiles = &stats_.tile(0);

  // --- Phase 1: arbitration over the pre-cycle state --------------------
  // Same decision procedure as Router::arbitrate in the reference engine,
  // inlined over the flat arrays: wormhole continuation first, then
  // round-robin output allocation among buffered head flits.
  // renoc-hot-begin (phases 1+2 run every cycle over every busy router)
  planned_.clear();
  // Only routers holding a buffered flit can plan a move, and the busy set
  // visits them in ascending order, so planned_ (and with it the commit
  // order) is the one a scan over every router builds. (The reference
  // arbitrates idle routers too, with zero planned moves and a zero
  // arbitration count — no observable difference.)
  for (std::size_t w = 0; w < busy_.size(); ++w) {
    for (std::uint64_t bits = busy_[w]; bits != 0; bits &= bits - 1) {
      const int n = static_cast<int>(w * 64) + std::countr_zero(bits);
      const std::size_t base = static_cast<std::size_t>(n) * kDirectionCount;
      // Round-robin allocation as request masks: bit `in` of req[o] is set
      // when input `in`'s front is a head flit routed to output o. A FIFO
      // requesting nothing (kNoRequest) lands in the unused row 7.
      unsigned req[8] = {};
      unsigned requested = 0;
      for (int in = 0; in < kDirectionCount; ++in) {
        const unsigned o = req_out_[base + static_cast<std::size_t>(in)] & 7u;
        req[o] |= 1u << in;
        requested |= 1u << o;
      }
      const int* const credit = &credits_[static_cast<std::size_t>(n) * 4];
      const unsigned credit_ok = 1u << kLocal /* ideal ejection */ |
                                 unsigned{credit[0] > 0} |
                                 unsigned{credit[1] > 0} << 1 |
                                 unsigned{credit[2] > 0} << 2 |
                                 unsigned{credit[3] > 0} << 3;
      // An output can move a flit only with downstream room, and then only
      // for its wormhole owner or, if free, for a requesting head. Visiting
      // those outputs in ascending order plans what a scan of all five
      // would.
      const unsigned granted = granted_[static_cast<std::size_t>(n)];
      unsigned newly_granted = 0;
      for (unsigned visit = (granted | requested) & credit_ok; visit != 0;
           visit &= visit - 1) {
        const int o = std::countr_zero(visit);
        const std::size_t out = base + static_cast<std::size_t>(o);
        if ((granted >> o) & 1u) {
          // Wormhole continuation: move the next flit of the owning packet
          // if it has arrived.
          const int owner = owner_input_[out];
          const std::size_t f = base + static_cast<std::size_t>(owner);
          if (fifo_size_[f] > 0 && fifo_front(f).packet == owner_packet_[out])
            // renoc-lint-allow(hot-alloc): worst case reserved in the ctor
            planned_.push_back(
                PlannedMove{n, owner, static_cast<Direction>(o)});
          continue;
        }
        // Doubling a mask and shifting it past the cursor puts inputs rr+1,
        // rr+2, ... (mod P) in bit order, so the lowest set bit is the
        // input the round-robin scan would reach first.
        const int from = rr_pointer_[out] + 1;  // 1..P
        const unsigned doubled = req[o] | (req[o] << kDirectionCount);
        int in = from + std::countr_zero(doubled >> from);
        if (in >= kDirectionCount) in -= kDirectionCount;
        // renoc-lint-allow(hot-alloc): worst case reserved in the ctor
        planned_.push_back(PlannedMove{n, in, static_cast<Direction>(o)});
        owner_input_[out] = static_cast<std::int8_t>(in);
        owner_packet_[out] =
            fifo_front(base + static_cast<std::size_t>(in)).packet;
        rr_pointer_[out] = static_cast<std::int8_t>(in);
        newly_granted |= 1u << o;
      }
      granted_[static_cast<std::size_t>(n)] =
          static_cast<std::uint8_t>(granted | newly_granted);
      tiles[n].arbitrations +=
          static_cast<std::uint64_t>(std::popcount(newly_granted));
    }
  }

  // --- Phase 2: commit all planned moves --------------------------------
  for (const PlannedMove& mv : planned_) {
    const int n = mv.node;
    const std::size_t f = port_index(n, mv.in_port);
    const FlitHandle flit = fifo_front(f);
    TileActivity& act = tiles[n];
    ++act.buffer_reads;
    ++act.crossbar_traversals;

    // Credit return toward the upstream router (a local injection's goes
    // to the spare counter).
    ++credits_[static_cast<std::size_t>(credit_return_[f])];

    const int o = static_cast<int>(mv.out);
    if (mv.out == Direction::kLocal) {
      eject_flit(n, flit, tiles);
    } else {
      const int down = neighbor_node_[static_cast<std::size_t>(n) * 4 +
                                      static_cast<std::size_t>(o)];
      push_flit(down, kOppositeDir[o], flit);
      ++tiles[down].buffer_writes;
      ++act.link_flits;
      --credits_[static_cast<std::size_t>(n) * 4 +
                 static_cast<std::size_t>(o)];
    }
    pop_front(n, f);
    // The tail releases its wormhole grant.
    granted_[static_cast<std::size_t>(n)] &= static_cast<std::uint8_t>(
        ~(unsigned{is_tail(flit.type)} << o));
  }
  // renoc-hot-end

  // --- Phase 3: injection ------------------------------------------------
  inject_phase(tiles);
}

void Fabric::inject_phase(TileActivity* tiles) {
  // renoc-hot-begin (phase 3 runs every cycle)
  if (degraded_) {
    for (int n = 0; n < node_count(); ++n) {
      auto& ni = nis_[static_cast<std::size_t>(n)];
      // The delivery guard is NI hardware: timeouts, retransmissions and
      // notice handling keep running while the PE is halted —
      // set_injection_enabled gates only the admission of NEW messages
      // (inside guard_tick), and a wormhole packet cannot be stopped
      // mid-injection without wedging its grants downstream.
      guard_tick(n, ni);
      if (inject_flit(n, ni, tiles)) ++ni.tracked_flits_in_net;
    }
    return;
  }
  // Pristine: an NI without work can do nothing, so only the work set is
  // visited — in ascending node order, so PacketIds are assigned exactly
  // as a scan over every NI would assign them.
  for (std::size_t w = 0; w < ni_work_.size(); ++w) {
    for (std::uint64_t bits = ni_work_[w]; bits != 0; bits &= bits - 1) {
      const int b = std::countr_zero(bits);
      const int n = static_cast<int>(w) * 64 + b;
      auto& ni = nis_[static_cast<std::size_t>(n)];
      if (!ni.enabled) continue;
      if (!ni.staging()) stage_next_message(n);
      inject_flit(n, ni, tiles);
      if (!ni.staging() && ni.send_queue.empty())
        ni_work_[w] &= ~(std::uint64_t{1} << b);
    }
  }
  // renoc-hot-end
}

/// Injects the next flit of the NI's current packet if one is staged and
/// the router's local FIFO has room; returns whether a flit moved.
bool Fabric::inject_flit(int node, NetworkInterface& ni,
                         TileActivity* tiles) {
  // renoc-hot-begin (once per NI with work, every cycle)
  if (!ni.staging()) return false;
  if (fifo_size_[port_index(node, kLocal)] >= depth_) return false;
  const int i = ni.next_flit++;
  push_flit(node, kLocal,
            FlitHandle{ni.packet,
                       static_cast<std::uint16_t>(packets_[ni.packet].dst),
                       flit_type(i, ni.flits)});
  TileActivity& act = tiles[node];
  ++act.injected_flits;
  ++act.buffer_writes;
  return true;
  // renoc-hot-end
}

void Fabric::run(int n) {
  RENOC_CHECK(n >= 0);
  for (int i = 0; i < n; ++i) {
    // Once idle, the rest of the window is advance_idle's to cover.
    if (idle()) {
      advance_idle(static_cast<Cycle>(n - i));
      return;
    }
    step();
  }
}

void Fabric::advance_idle(Cycle n) {
  RENOC_CHECK_MSG(idle(), "advance_idle needs an idle fabric");
  if (!degraded_) {
    now_ += n;
    return;
  }
  for (Cycle i = 0; i < n; ++i) step();
}

int Fabric::drain(int max_cycles) {
  for (int i = 0; i < max_cycles; ++i) {
    if (idle()) return i;
    step();
  }
  RENOC_CHECK_MSG(idle(), "network failed to drain in " << max_cycles
                                                        << " cycles");
  return max_cycles;
}

bool Fabric::idle() const {
  // No buffered flit (no busy router) also implies no wormhole grant can
  // be pending (a held grant means a tail flit is still staged or buffered
  // somewhere), and no active reassembly (its tail would be in flight) — so
  // the busy set and partial_count_ plus the NI queues (the work set, on a
  // pristine fabric) cover the reference engine's full quiescence check.
  const auto empty = [](const std::vector<std::uint64_t>& bits) {
    return std::all_of(bits.begin(), bits.end(),
                       [](std::uint64_t w) { return w == 0; });
  };
  if (partial_count_ != 0 || !empty(busy_)) return false;
  if (!degraded_) return empty(ni_work_);
  for (const auto& ni : nis_) {
    if (!ni.send_queue.empty()) return false;
    if (ni.staging()) return false;
    // A tracked message awaiting its delivery notice, a timeout, or a
    // retransmission still owns future work.
    if (ni.tracked_active) return false;
  }
  return true;
}

void Fabric::set_injection_enabled(int node, bool enabled) {
  RENOC_CHECK(node >= 0 && node < node_count());
  nis_[static_cast<std::size_t>(node)].enabled = enabled;
}

// renoc-test-only: no public call exposes the per-node injection gate
// that migration halts and releases; tests check it is released.
bool Fabric::injection_enabled(int node) const {
  RENOC_CHECK(node >= 0 && node < node_count());
  return nis_[static_cast<std::size_t>(node)].enabled;
}

// --- Period replay ----------------------------------------------------------

bool Fabric::markable() const {
  if (degraded_ || unread_ != 0 || !idle()) return false;
  return std::all_of(nis_.begin(), nis_.end(),
                     [](const NetworkInterface& ni) { return ni.enabled; });
}

int Fabric::mark() {
  if (!markable()) return -1;
  marks_.push_back(MarkRecord{now_, next_packet_id_, delivery_log_.size()});
  const TileActivity* tiles = &stats_.tile(0);
  mark_tiles_.insert(mark_tiles_.end(), tiles, tiles + nodes_);
  for (const NetworkInterface& ni : nis_)
    mark_msg_seq_.push_back(ni.next_msg_seq);
  mark_rr_.insert(mark_rr_.end(), rr_pointer_.begin(), rr_pointer_.end());
  log_deliveries_ = true;
  return static_cast<int>(marks_.size()) - 1;
}

bool Fabric::repeat(int m, std::uint64_t times) {
  RENOC_CHECK(m >= 0 && static_cast<std::size_t>(m) < marks_.size());
  const std::size_t at = static_cast<std::size_t>(m);
  if (!markable() ||
      !std::equal(rr_pointer_.begin(), rr_pointer_.end(),
                  mark_rr_.begin() + static_cast<std::ptrdiff_t>(
                                         at * rr_pointer_.size())))
    return false;
  const MarkRecord mk = marks_[at];
  // Each counter moves on by `times` copies of its change since the mark.
  const auto extend = [times](std::uint64_t& now, std::uint64_t then) {
    now += times * (now - then);
  };
  extend(now_, mk.now);
  extend(next_packet_id_, mk.next_packet_id);
  TileActivity* tiles = &stats_.tile(0);
  for (std::size_t n = 0; n < nodes_; ++n) {
    // Message sequence numbers wrap at 32 bits, as stepping wraps them.
    std::uint32_t& seq = nis_[n].next_msg_seq;
    seq += static_cast<std::uint32_t>(times) *
           (seq - mark_msg_seq_[at * nodes_ + n]);
    TileActivity& a = tiles[n];
    const TileActivity& b = mark_tiles_[at * nodes_ + n];
    extend(a.buffer_writes, b.buffer_writes);
    extend(a.buffer_reads, b.buffer_reads);
    extend(a.crossbar_traversals, b.crossbar_traversals);
    extend(a.arbitrations, b.arbitrations);
    extend(a.link_flits, b.link_flits);
    extend(a.injected_flits, b.injected_flits);
    extend(a.ejected_flits, b.ejected_flits);
    extend(a.pe_compute_ops, b.pe_compute_ops);
    extend(a.pe_state_words, b.pe_state_words);
  }
  for (std::uint64_t r = 0; r < times; ++r)
    for (std::size_t d = mk.deliveries; d < delivery_log_.size(); ++d)
      stats_.note_packet_delivered(delivery_log_[d].flits,
                                   delivery_log_[d].latency);
  release_marks();
  return true;
}

void Fabric::release_marks() {
  marks_.clear();
  mark_tiles_.clear();
  mark_msg_seq_.clear();
  mark_rr_.clear();
  delivery_log_.clear();
  log_deliveries_ = false;
}

// --- Degraded-fabric mode ---------------------------------------------------

void Fabric::enter_degraded_mode() {
  if (degraded_) return;
  degraded_ = true;
  const std::size_t nodes = static_cast<std::size_t>(node_count());
  link_up_.assign(nodes * 4, 0);
  for (std::size_t l = 0; l < nodes * 4; ++l)
    if (neighbor_node_[l] >= 0) link_up_[l] = 1;
  last_seq_delivered_.assign(nodes * nodes, 0);
  doomed_.reserve(64);
}

void Fabric::install_fault_plan(const FaultPlan& plan) {
  RENOC_CHECK_MSG(idle(), "install a fault plan on an idle fabric");
  for (const FaultEvent& e : plan.events) {
    RENOC_CHECK_MSG(e.node >= 0 && e.node < node_count(),
                    "fault event names node " << e.node);
    RENOC_CHECK_MSG(e.port >= 0 && e.port < 4,
                    "link fault names port " << e.port);
  }
  fault_events_ = plan.events;
  next_fault_ = 0;
  enter_degraded_mode();
}

void Fabric::configure_delivery_guard(const DeliveryGuardConfig& cfg) {
  cfg.validate();
  RENOC_CHECK_MSG(idle(), "configure the delivery guard on an idle fabric");
  guard_ = cfg;
  enter_degraded_mode();
}

// renoc-test-only: no public call exposes which links a fault plan has
// taken down or restored; tests check the plan applied.
bool Fabric::link_alive(int node, int dir) const {
  RENOC_CHECK(node >= 0 && node < node_count());
  RENOC_CHECK(dir >= 0 && dir < 4);
  const std::size_t l =
      static_cast<std::size_t>(node) * 4 + static_cast<std::size_t>(dir);
  if (!degraded_) return neighbor_node_[l] >= 0;
  return link_up_[l] != 0;
}

bool Fabric::destination_reachable(int src, int dst) const {
  RENOC_CHECK(src >= 0 && src < node_count());
  RENOC_CHECK(dst >= 0 && dst < node_count());
  if (!adaptive_active_) return true;
  const std::size_t nodes = static_cast<std::size_t>(node_count());
  return adaptive_table_[(static_cast<std::size_t>(src) * kDirectionCount +
                          static_cast<std::size_t>(kLocal)) *
                             nodes +
                         static_cast<std::size_t>(dst)] != kUnreachableRoute;
}

void Fabric::apply_due_faults() {
  bool changed = false;
  while (next_fault_ < fault_events_.size() &&
         fault_events_[next_fault_].cycle <= now_) {
    const FaultEvent& e = fault_events_[next_fault_++];
    const std::size_t n = static_cast<std::size_t>(e.node);
    switch (e.kind) {
      case FaultEvent::Kind::kLinkDown: {
        const std::size_t l = n * 4 + static_cast<std::size_t>(e.port);
        if (neighbor_node_[l] >= 0 && link_up_[l] != 0) {
          link_up_[l] = 0;
          changed = true;
        }
        break;
      }
      case FaultEvent::Kind::kLinkUp: {
        const std::size_t l = n * 4 + static_cast<std::size_t>(e.port);
        if (neighbor_node_[l] >= 0 && link_up_[l] == 0) {
          link_up_[l] = 1;
          changed = true;
        }
        break;
      }
    }
  }
  if (!changed) return;
  // One route epoch per applied batch: rebuild the west-first tables over
  // the surviving topology, then purge what the change stranded. Both are
  // cold-path operations, deliberately outside every renoc-hot region.
  ++route_epoch_;
  adaptive_active_ = true;
  build_adaptive_routes(config_.dim, link_up_, adaptive_table_);
  purge_stranded_packets();
  // Every surviving head re-routes under the new tables.
  for (std::size_t f = 0; f < req_out_.size(); ++f)
    req_out_[f] = fifo_size_[f] > 0
                      ? request_of(static_cast<int>(f / kDirectionCount), f,
                                   fifo_front(f))
                      : kNoRequest;
}

void Fabric::doom(std::uint32_t slot) {
  PacketRecord& p = packets_[slot];
  if (p.doomed) return;
  p.doomed = true;
  doomed_.push_back(slot);
}

void Fabric::purge_stranded_packets() {
  const int n_nodes = node_count();
  const std::size_t nodes = static_cast<std::size_t>(n_nodes);
  doomed_.clear();

  // Pass A: mark doomed packets — every wormhole grant crossing a dead
  // link (the packet's remaining flits can never follow their head) and
  // every buffered head whose destination is unreachable from where it
  // sits under the new tables.
  for (int n = 0; n < n_nodes; ++n) {
    for (int p = 0; p < kDirectionCount; ++p) {
      const std::size_t f = port_index(n, p);
      const std::size_t arena_base = f * static_cast<std::size_t>(depth_);
      int pos = fifo_head_[f];
      for (int k = 0; k < fifo_size_[f]; ++k) {
        const FlitHandle& fl =
            arena_[arena_base + static_cast<std::size_t>(pos)];
        if (++pos == depth_) pos = 0;
        if (is_head(fl.type) &&
            adaptive_table_[f * nodes + fl.dst] == kUnreachableRoute)
          doom(fl.packet);
      }
      if ((granted_[static_cast<std::size_t>(n)] >> p) & 1u &&
          p != kLocal &&
          link_up_[static_cast<std::size_t>(n) * 4 +
                   static_cast<std::size_t>(p)] == 0)
        doom(owner_packet_[f]);
    }
  }
  if (doomed_.empty()) return;

  // Pass B1: drop doomed flits from the input FIFOs, compacting each ring
  // in place and returning the freed buffer slots' credits upstream.
  // Source trackers see their flit counts fall (a zeroed count is what
  // arms their retransmission).
  std::vector<FlitHandle> kept(static_cast<std::size_t>(depth_));
  for (int n = 0; n < n_nodes; ++n) {
    for (int p = 0; p < kDirectionCount; ++p) {
      const std::size_t f = port_index(n, p);
      const int sz = fifo_size_[f];
      if (sz == 0) continue;
      const std::size_t arena_base = f * static_cast<std::size_t>(depth_);
      int pos = fifo_head_[f];
      int keep = 0;
      for (int k = 0; k < sz; ++k) {
        const FlitHandle fl =
            arena_[arena_base + static_cast<std::size_t>(pos)];
        if (++pos == depth_) pos = 0;
        if (packets_[fl.packet].doomed) {
          note_flit_left_network(packets_[fl.packet]);
          ++credits_[static_cast<std::size_t>(credit_return_[f])];
          --node_buffered_[static_cast<std::size_t>(n)];
        } else {
          kept[static_cast<std::size_t>(keep++)] = fl;
        }
      }
      if (keep != sz) {
        for (int k = 0; k < keep; ++k)
          arena_[arena_base + static_cast<std::size_t>(k)] =
              kept[static_cast<std::size_t>(k)];
        fifo_head_[f] = 0;
        fifo_size_[f] = keep;
      }
    }
    const std::size_t un = static_cast<std::size_t>(n);
    if (node_buffered_[un] == 0) busy_[un / 64] &= ~node_bit(un);
  }
  // Pass B2: release wormhole grants held by doomed packets.
  for (int n = 0; n < n_nodes; ++n)
    for (int o = 0; o < kDirectionCount; ++o)
      if ((granted_[static_cast<std::size_t>(n)] >> o) & 1u &&
          packets_[owner_packet_[port_index(n, o)]].doomed)
        granted_[static_cast<std::size_t>(n)] &=
            static_cast<std::uint8_t>(~(1u << o));

  // Pass B3: a partially injected attempt that was purged from the fabric
  // discards its remaining staged flits, so the tracker can retransmit the
  // whole message cleanly.
  for (auto& ni : nis_)
    if (ni.staging() && packets_[ni.packet].doomed) ni.next_flit = ni.flits;

  // Every pass above reads the doomed marks, so the records are freed
  // last, ending any reassembly in progress. No drop is recorded here — the
  // source tracker owns the packet's accounting (it retransmits or resolves
  // dropped/unreachable at its timeout).
  for (const std::uint32_t slot : doomed_) {
    if (packets_[slot].reassembling) --partial_count_;
    recycle_payload(packets_[slot].payload);
    free_packet(slot);
  }
}

void Fabric::note_flit_left_network(const PacketRecord& packet) {
  // renoc-hot-begin (once per flit leaving a degraded fabric)
  auto& ni = nis_[static_cast<std::size_t>(packet.src)];
  if (ni.tracked_active && ni.tracked_pid == packet.pid)
    --ni.tracked_flits_in_net;
  // renoc-hot-end
}

void Fabric::restage_tracked(NetworkInterface& ni) {
  const std::uint32_t slot = open_packet(ni.tracked_msg, ni.tracked_seq);
  PacketRecord& p = packets_[slot];
  // Each attempt carries its own copy of the payload (in a pooled buffer):
  // the tracked message keeps the original for later retransmissions.
  if (!payload_pool_.empty()) {
    p.payload = std::move(payload_pool_.back());
    payload_pool_.pop_back();
  }
  p.payload.assign(ni.tracked_msg.payload.begin(),
                   ni.tracked_msg.payload.end());
  ni.tracked_pid = p.pid;
  ni.tracked_slot = slot;
  ni.tracked_flits_in_net = 0;
  start_injection(ni, slot);
  const int shift = std::min(ni.tracked_attempts, guard_.backoff_shift_cap);
  ni.tracked_deadline = now_ + (guard_.timeout_cycles << shift);
}

void Fabric::resolve_tracked(NetworkInterface& ni) {
  ni.tracked_active = false;
  ni.tracked_pid = 0;
  ni.tracked_ack_at = kNoAck;
  ni.tracked_flits_in_net = 0;
}

void Fabric::admit_next_message(int node, NetworkInterface& ni) {
  Message msg = ni.send_queue.pop();
  if (!destination_reachable(node, msg.dst)) {
    // Refused at the source — reported, never spun on. One admission
    // attempt per cycle keeps the cold path bounded.
    stats_.note_packet_unreachable();
    recycle(std::move(msg));
    return;
  }
  // Keep a copy for retransmission; the displaced buffer feeds the pool.
  recycle(std::move(ni.tracked_msg));
  ni.tracked_msg = std::move(msg);
  ni.tracked_seq = ++ni.next_msg_seq;
  ni.tracked_attempts = 0;
  ni.tracked_ack_at = kNoAck;
  ni.tracked_active = true;
  restage_tracked(ni);
}

void Fabric::guard_tick(int node, NetworkInterface& ni) {
  // renoc-hot-begin (every cycle per live NI on a degraded fabric; the
  // retransmission/admission helpers it calls run per timeout, not per
  // cycle, and any route rebuild in here would trip the route-rebuild
  // lint rule)
  if (ni.tracked_active) {
    // "Attempt gone" = the current attempt has no flit staged or buffered
    // anywhere. Resolution additionally waits for it so stop-and-wait
    // stays airtight: the next message never shares the fabric with a
    // lingering attempt of this one.
    const bool attempt_gone = ni.tracked_flits_in_net == 0 && !ni.staging();
    if (ni.tracked_ack_at != kNoAck && now_ >= ni.tracked_ack_at &&
        attempt_gone) {
      // Delivery notice landed (the destination counted the delivery).
      resolve_tracked(ni);
    } else if (now_ >= ni.tracked_deadline) {
      // The source acts only on what it can know: a delivery notice that
      // has LANDED. A notice still in flight does not suppress the
      // retransmission below — that is the honest race that produces
      // duplicates (swallowed at reassembly by msg_seq). The in-flight
      // notice is peeked at ONLY for accounting, so a delivered message
      // that exhausts its budget resolves silently instead of
      // double-counting as dropped.
      if (!attempt_gone) {
        // Still physically in the fabric: congestion, not loss. Extend the
        // deadline deterministically instead of duplicating a live packet.
        ni.tracked_deadline = now_ + guard_.timeout_cycles;
      } else if (!destination_reachable(node, ni.tracked_msg.dst)) {
        if (ni.tracked_ack_at == kNoAck) stats_.note_packet_unreachable();
        resolve_tracked(ni);
      } else if (ni.tracked_attempts < guard_.retry_budget) {
        ++ni.tracked_attempts;
        stats_.note_packet_retried();
        restage_tracked(ni);
      } else {
        if (ni.tracked_ack_at == kNoAck) stats_.note_packet_dropped();
        resolve_tracked(ni);
      }
    }
  }
  if (ni.enabled && !ni.tracked_active && !ni.staging() &&
      !ni.send_queue.empty())
    admit_next_message(node, ni);
  // renoc-hot-end
}

}  // namespace renoc
