#!/usr/bin/env bash
# The pinned lists of `bench/run.py` logs, against the committed ones.
#
#   .github/pinned-lists.sh digests LOG...
#       Each workload's CSV sha256 per seed set, from the logs together,
#       against .github/csv-digests.txt.
#   .github/pinned-lists.sh counts LOG...
#       Each count line of a `--trace 1` log, labelled with its workload,
#       against .github/trace-counts.txt; the counts do not depend on the
#       seed set, so every log must equal the one list.
#
# Prints each list read, and any difference from the committed list on
# stderr. Exits 1 on a difference, 2 on a wrong call.
set -uo pipefail

pinned=$(dirname "$0")
mode=${1:-}
shift || true
if [ $# -eq 0 ]; then
  mode=
fi

compare() {  # compare COMMITTED LIST: print LIST, diff it to stderr
  printf '%s\n' "$2"
  diff <(sort "$1") <(printf '%s\n' "$2" | sort) >&2
}

case $mode in
  digests)
    compare "$pinned/csv-digests.txt" "$(awk '
      /csv sha256/ {print w, $3; next}
      / seed [0-9]+: / {sub(":", "", $3); w = $1 " seed " $3}' "$@")"
    ;;
  counts)
    status=0
    for log in "$@"; do
      compare "$pinned/trace-counts.txt" "$(awk '
        / count$/ {print w, $1, $2; next}
        / seed [0-9]+: / {w = $1}' "$log")" || status=1
    done
    exit $status
    ;;
  *)
    echo "usage: $0 digests|counts LOG..." >&2
    exit 2
    ;;
esac
