#!/usr/bin/env bash
# Lists the library functions that no shipped binary can reach.
#
# Builds a throwaway tree of the whole repository plus the standalone
# perfbench binary at -O0 with -ffunction-sections -fdata-sections and
# -Wl,--gc-sections, so nothing is inlined and the linker keeps exactly the
# functions a binary reaches. Every strong (global, non-weak) `mvcom::`
# function defined in a src/ archive is then looked up in the shipped
# binaries (the mvcom CLI, every bench, every example, mvcom_perfbench) and
# in the test binaries. Functions no shipped binary keeps are printed in two
# groups: "tests only" (some test binary keeps them) and "nothing".
#
# A function listed in tools/unreached_api.keep (one demangled signature per
# line, then " # " and the reason it stays) is reported as kept. The script
# exits 1 when any other function is unreached, so a CI step can keep the
# library surface from growing code that ships nowhere.
#
# Usage: tools/unreached_api.sh [work-dir]
#   work-dir  where the throwaway builds go (default: a fresh temp directory,
#             removed on exit). Reusing one makes reruns incremental.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
KEEP="${ROOT}/tools/unreached_api.keep"
JOBS="$(nproc)"

if [[ $# -ge 1 ]]; then
  WORK="$1"
  mkdir -p "${WORK}"
else
  WORK="$(mktemp -d "${TMPDIR:-/tmp}/mvcom-unreached.XXXXXX")"
  trap 'rm -rf "${WORK}"' EXIT
fi
WORK="$(cd "${WORK}" && pwd)"
case "${WORK}/" in
  "${ROOT}/"*) echo "work-dir must lie outside the repository" >&2; exit 2 ;;
esac

AUDIT_FLAGS=(
  -DCMAKE_BUILD_TYPE=None
  "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections -fdata-sections"
  "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"
)

echo "== building the audit tree in ${WORK}" >&2
cmake -S "${ROOT}" -B "${WORK}/repo" -DMVCOM_WERROR=OFF "${AUDIT_FLAGS[@]}" \
  > "${WORK}/configure.log"
cmake --build "${WORK}/repo" -j"${JOBS}" > "${WORK}/build.log"
cmake -S "${ROOT}/perfbench" -B "${WORK}/perfbench" "${AUDIT_FLAGS[@]}" \
  > "${WORK}/perfbench-configure.log"
cmake --build "${WORK}/perfbench" -j"${JOBS}" --target mvcom_perfbench \
  > "${WORK}/perfbench-build.log"

# Demangled names of the functions a linked binary kept.
kept_functions() {
  nm --defined-only "$@" | awk '$2 ~ /^[TtWw]$/ { print $3 }' | c++filt
}

mapfile -t archives < <(find "${WORK}/repo/src" -name 'libmvcom_*.a' | sort)
mapfile -t shipped < <(
  {
    echo "${WORK}/repo/tools/mvcom"
    find "${WORK}/repo/bench" "${WORK}/repo/examples" -maxdepth 1 -type f \
      -perm -u+x
    echo "${WORK}/perfbench/mvcom_perfbench"
  } | sort)
mapfile -t tests < <(find "${WORK}/repo/tests" -maxdepth 1 -type f \
  -name 'test_*' -perm -u+x | sort)

nm --defined-only "${archives[@]}" 2>/dev/null \
  | awk '$2 == "T" { print $3 }' | c++filt | grep '^mvcom::' \
  | sort -u > "${WORK}/library.txt"
kept_functions "${shipped[@]}" | sort -u > "${WORK}/shipped.txt"
kept_functions "${tests[@]}" | sort -u > "${WORK}/tests.txt"
if [[ -f "${KEEP}" ]]; then
  grep -v '^[[:space:]]*\(#\|$\)' "${KEEP}" | sed 's/ # .*$//' \
    | sort -u > "${WORK}/keep.txt"
else
  : > "${WORK}/keep.txt"
fi

comm -23 "${WORK}/library.txt" "${WORK}/shipped.txt" > "${WORK}/unreached.txt"
comm -12 "${WORK}/unreached.txt" "${WORK}/tests.txt" > "${WORK}/tests_only.txt"
comm -23 "${WORK}/unreached.txt" "${WORK}/tests.txt" > "${WORK}/nothing.txt"
comm -23 "${WORK}/unreached.txt" "${WORK}/keep.txt" > "${WORK}/unlisted.txt"
comm -13 "${WORK}/unreached.txt" "${WORK}/keep.txt" > "${WORK}/stale.txt"

report() {
  local title="$1" file="$2" line
  echo "${title} ($(wc -l < "${file}")):"
  while IFS= read -r line; do
    if grep -qxF -- "${line}" "${WORK}/keep.txt"; then
      echo "  [kept] ${line}"
    else
      echo "  ${line}"
    fi
  done < "${file}"
}

echo "strong mvcom:: functions in src/ archives: $(wc -l < "${WORK}/library.txt")"
echo "shipped binaries: ${#shipped[@]}, test binaries: ${#tests[@]}"
report "reached by tests only" "${WORK}/tests_only.txt"
report "reached by nothing" "${WORK}/nothing.txt"
if [[ -s "${WORK}/stale.txt" ]]; then
  echo "keep-list entries that are reached or gone (informational):"
  sed 's/^/  /' "${WORK}/stale.txt"
fi
if [[ -s "${WORK}/unlisted.txt" ]]; then
  echo "FAIL: $(wc -l < "${WORK}/unlisted.txt") unreached function(s) not on" \
    "tools/unreached_api.keep — ship, delete or list each with its reason"
  exit 1
fi
echo "OK: every unreached function is on the keep-list"
