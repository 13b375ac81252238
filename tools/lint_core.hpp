// renoc_lint — static enforcement of the repo's engine-pattern rules.
//
// Generic tools (compilers, sanitizers, clang-tidy) cannot know this
// repo's conventions: that a region marked as an engine hot loop must not
// grow containers or touch the allocator, that all randomness flows
// through util/rng so sweeps stay replayable, that ring-buffer cursors
// advance by conditional wrap instead of a modulo (a runtime integer
// division per ring operation — the single biggest cost the flat NoC
// engine removed), that the flat noc/ldpc engines never hash-map, that
// shipped code and benches publish JSON artifacts through util/json's
// atomic writer instead of a raw ofstream (a crash mid-write must never
// leave a torn artifact), and that every deferred-work marker carries a
// tracker reference.
// renoc_lint checks exactly those.
//
// The checker is deliberately lexical: comments and string/char literals
// are stripped before code rules run (so prose and fixtures cannot trip
// them), comment-only rules run on the extracted comment text, and the
// whole pass is a few string scans per line — the same plain-C++ CLI
// shape as renoc_golden_diff, with no parser dependency to rot.
//
// Inline suppression: a triaged exception carries a comment with the allow
// marker ("renoc-lint-" + "allow", then the rule id in parentheses, a
// colon, and a non-empty justification) — trailing the offending line, or
// on a comment-only line directly above it; a malformed or unjustified
// marker is itself a finding. Hot regions are delimited by
// comment lines carrying the begin/end markers ("renoc-hot-" + "begin" /
// "end"). All markers are spelled split in this header so its own doc
// comments neither open a region nor register a suppression.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace renoc::lint {

/// One rule violation at a source location.
struct Finding {
  std::string file;     ///< path as given to lint_source
  int line = 0;         ///< 1-based
  std::string rule;     ///< stable rule id, e.g. "hot-alloc"
  std::string message;  ///< human-readable explanation
};

/// "file:line: [rule] message" — the grep-able report line.
std::string format_finding(const Finding& f);

/// Source split into aligned views: `code` has comments and string/char
/// literals blanked to spaces, `comments` has everything *but* comment
/// text blanked. Both preserve line structure exactly, so a line number
/// in one maps to the same line in the other and in the original.
struct SplitSource {
  std::string code;
  std::string comments;
};
SplitSource split_source(std::string_view source);

/// Lints one in-memory source. `path` selects which rules apply (see the
/// rule table in lint_core.cpp); use repo-relative forward-slash paths
/// ("src/noc/fabric.cpp").
std::vector<Finding> lint_source(std::string_view path,
                                 std::string_view source);

/// Recursively lints every *.cpp/*.hpp/*.h under root/<subdir> for each
/// subdir, in sorted path order. IO errors throw std::runtime_error.
std::vector<Finding> lint_tree(const std::string& root,
                               const std::vector<std::string>& subdirs);

}  // namespace renoc::lint
