// The library has one portable code path and compiles no vector tier.
// This header stays only because perfbench/main.cpp stamps the tier name
// into every benchmark record's fingerprint; it goes when that field does.
#pragma once

namespace renoc::simd {

/// Name of the code path the library runs: always "scalar".
inline const char* active_tier_name() { return "scalar"; }

}  // namespace renoc::simd
