#!/usr/bin/env bash
# Fails when a suite left sharding debris behind: a running `sereep worker`
# process, or a `${TMPDIR:-/tmp}/sereep-fleet-*` directory. Every local
# fleet removes its directory once its workers have mapped the artifact in
# it, and kills its workers when the sweep returns; a teardown bug would
# otherwise leak listening processes or files silently.
#
# Usage: tools/check_leftovers.sh [what just ran, for the message]
set -uo pipefail

WHAT=${1:-the suite}
status=0
# A worker is a process whose argv is `.../sereep worker ...`, read from
# /proc so a shell whose command line merely mentions one never matches.
# Zombies have an empty cmdline and do not count.
for cmdline in /proc/[0-9]*/cmdline; do
  mapfile -d '' -t argv < "$cmdline" 2> /dev/null || continue
  if [[ ${argv[0]:-} == *sereep && ${argv[1]:-} == worker ]]; then
    echo "${cmdline%/cmdline}: ${argv[*]}"
    status=1
  fi
done
if [ "$status" -ne 0 ]; then
  echo "sereep worker processes outlived $WHAT"
fi
if ls -d "${TMPDIR:-/tmp}"/sereep-fleet-* 2> /dev/null; then
  echo "sereep-fleet directories outlived $WHAT"
  status=1
fi
exit "$status"
