#!/usr/bin/env bash
# Library reachability check: every out-of-line function that librenoc.a
# defines must be linked into a production executable, or carry a
# "// renoc-test-only: <reason>" comment directly above its definition.
#
# Builds the tree with tests off, unoptimized (-O0, so nothing is inlined
# away), one section per function and linker section GC: renoc_paper,
# bench_inspect_configs, the examples and the tools. Then builds the
# benchmark's own CMake project (perfbench/, which it only reads) the same
# way. Both build under build-reachability/. Lists every global text ("T")
# symbol of librenoc.a that no built executable defines, with its source
# line, and exits 1 naming each one whose definition lacks the marker. It
# also exits 1 naming each marked function that an executable does link:
# a production caller makes the marker's reason stale. A build failure
# exits 2.
# Usage: scripts/reachability.sh
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="${repo_root}/build-reachability"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
mkdir -p "${work}"

flags=(-DCMAKE_BUILD_TYPE=Debug "-DCMAKE_CXX_FLAGS_DEBUG=-O0 -g"
  -DCMAKE_CXX_FLAGS=-ffunction-sections
  -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)
log="${work}/build.log"
: > "${log}"
build() {  # source dir, build dir, build args...
  local src="$1" dir="$2"
  shift 2
  if ! { cmake -S "${src}" -B "${dir}" "${flags[@]}" -DRENOC_BUILD_TESTS=OFF &&
         cmake --build "${dir}" -j "${jobs}" "$@"; } >> "${log}" 2>&1; then
    tail -n 40 "${log}" >&2
    echo "reachability: build of ${src} failed (log: ${log})" >&2
    exit 2
  fi
}
echo "== reachability: build (-O0, function sections, section GC) =="
build "${repo_root}" "${work}/tree"
build "${repo_root}/perfbench" "${work}/perfbench" --target renoc_perfbench

library="${work}/tree/librenoc.a"
nm --defined-only "${library}" | awk '$2 == "T" { print $3 }' \
  | sort -u > "${work}/library.txt"

: > "${work}/linked.txt"
executables=0
while IFS= read -r exe; do
  executables=$((executables + 1))
  nm --defined-only "${exe}" | awk '$2 == "T" { print $3 }' \
    >> "${work}/linked.txt"
done < <(find "${work}/tree" "${work}/perfbench" -name CMakeFiles -prune \
           -o -type f -perm -u+x -print | sort)
sort -u -o "${work}/linked.txt" "${work}/linked.txt"
comm -23 "${work}/library.txt" "${work}/linked.txt" > "${work}/unreached.txt"
comm -12 "${work}/library.txt" "${work}/linked.txt" > "${work}/reached.txt"

# Definition lines from the debug info: "<addr> T <symbol>\t<file>:<line>".
nm -l --defined-only "${library}" \
  | awk -F '\t' 'NF == 2 { split($1, f, " ")
                           if (f[2] == "T") print f[3], $2 }' \
  | sort -u > "${work}/lines.txt"

# Exit 0 when the "//" comment block directly above the definition whose
# name is on line $2 of file $1 holds the marker. A return type on its own
# line above the name is stepped over first.
has_marker() {
  awk -v n="$2" 'NR < n { line[NR] = $0 }
    END {
      i = n - 1
      while (i > 0 && line[i] !~ /^[[:space:]]*(\/\/|$)/ &&
             line[i] !~ /[;{}][[:space:]]*$/) i--
      while (i > 0 && line[i] ~ /^[[:space:]]*\/\//) {
        if (line[i] ~ /\/\/ renoc-test-only: [^[:space:]]/) found = 1
        i--
      }
      exit !found
    }' "$1"
}

# Functions are counted by demangled name: a constructor's complete and
# base object symbols (C1 and C2) are one function.
total=$(c++filt < "${work}/library.txt" | sort -u | wc -l)
declare -A seen=()
rows=()
unmarked=0
while IFS= read -r symbol; do
  name=$(c++filt "${symbol}")
  [[ -n "${seen[${name}]+x}" ]] && continue
  seen[${name}]=1
  where=$(awk -v s="${symbol}" '$1 == s { print $2; exit }' "${work}/lines.txt")
  if [[ -n "${where}" && -f "${where%:*}" ]] &&
     has_marker "${where%:*}" "${where##*:}"; then
    status="marked  "
  else
    status="UNMARKED"
    unmarked=$((unmarked + 1))
  fi
  rows+=("  ${status} ${where#"${repo_root}"/}  ${name}")
done < "${work}/unreached.txt"

# A marker on a function some executable links is stale.
declare -A seen_reached=()
stale=()
while IFS= read -r symbol; do
  name=$(c++filt "${symbol}")
  [[ -n "${seen_reached[${name}]+x}" ]] && continue
  seen_reached[${name}]=1
  where=$(awk -v s="${symbol}" '$1 == s { print $2; exit }' "${work}/lines.txt")
  if [[ -n "${where}" && -f "${where%:*}" ]] &&
     has_marker "${where%:*}" "${where##*:}"; then
    stale+=("  STALE    ${where#"${repo_root}"/}  ${name}")
  fi
done < "${work}/reached.txt"

echo "reachability: ${executables} executables, ${total} library functions," \
  "${#rows[@]} reached by none"
if ((${#rows[@]} > 0)); then
  printf '%s\n' "${rows[@]}" | sort -k2b,2V
fi
if ((${#stale[@]} > 0)); then
  printf '%s\n' "${stale[@]}" | sort -k2b,2V
fi
status=0
if ((unmarked > 0)); then
  echo "reachability: ${unmarked} library function(s) no production binary" \
    "links lack a '// renoc-test-only: <reason>' comment; delete them, move" \
    "them to tests/support, or mark them" >&2
  status=1
fi
if ((${#stale[@]} > 0)); then
  echo "reachability: ${#stale[@]} function(s) marked" \
    "'// renoc-test-only:' are linked by a production binary; remove the" \
    "marker" >&2
  status=1
fi
if ((status == 0)); then
  echo "reachability: every unreached library function is marked test-only," \
    "and no marked function is reached"
fi
exit "${status}"
