#!/bin/sh
# Kill-and-resume check for `emjoin_cli join --resume`.
#
#   cli_resume.sh CLI SHARDS KILL_TICK MIN_KILLED_ROWS
#
# Runs one small join three times with --print at --shards=SHARDS:
#   1. uninterrupted, as the reference;
#   2. with --fault-kill-at=KILL_TICK --resume=run.manifest, which must
#      exit 74 after printing a prefix of the reference of at least
#      MIN_KILLED_ROWS data rows;
#   3. with the same --resume and no fault, which must exit 0 and print
#      exactly the reference's data rows, byte for byte: the journaled
#      watermark first, then the rows the killed run never delivered.
set -u
cli=$1
shards=$2
tick=$3
min_killed=$4

dir=cli_resume_k$shards
rm -rf "$dir" && mkdir "$dir" && cd "$dir" || exit 1
awk 'BEGIN { for (i = 0; i < 40; i++) print i "," i % 8 }' > r1.csv
awk 'BEGIN { for (i = 0; i < 40; i++) print i % 8 "," i }' > r2.csv

run() {
  "$cli" join --memory 64 --block 4 --print --shards="$shards" --workers=2 \
    "$@" a,b=r1.csv b,c=r2.csv
}
rows() { grep -Ex '[0-9]+(,[0-9]+)*' "$1"; }
fail() { echo "cli_resume.sh (K=$shards): $*" >&2; exit 1; }

run > full.out || fail "uninterrupted run failed"
rows full.out > full.rows
test -s full.rows || fail "uninterrupted run printed no rows"

run --fault-kill-at="$tick" --resume=run.manifest > killed.out
code=$?
test "$code" -eq 74 || fail "killed run exited $code, expected 74"
rows killed.out > killed.rows
killed=$(wc -l < killed.rows)
test "$killed" -ge "$min_killed" ||
  fail "killed run printed $killed rows, expected at least $min_killed"
head -n "$killed" full.rows | cmp -s - killed.rows ||
  fail "killed run's rows are not a prefix of the uninterrupted run's"

run --resume=run.manifest > resumed.out || fail "resumed run failed"
rows resumed.out > resumed.rows
cmp resumed.rows full.rows || fail "resumed rows differ from uninterrupted"
