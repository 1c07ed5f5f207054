#!/usr/bin/env bash
# Tier-1 smoke for the socket transport (DESIGN.md §15), three rounds:
#   1. UDS loopback — agentlocd on a unix socket, verified loadgen;
#   2. TCP loopback — the same pair over tcp:127.0.0.1;
#   3. multi-worker — agentlocd --workers 4, loadgen --cluster routing via
#      the kPartitionMap advertisement.
# Fails on any mismatch or nonzero exit.
#
# Exit codes:
#   0   all rounds verified
#   77  sandbox cannot create sockets (skip; automake/ctest convention)
#   1   anything else
#
# Usage: scripts/transport_smoke.sh [BUILD_DIR]   (default: build)

set -u

BUILD_DIR="${1:-build}"
AGENTLOCD="${BUILD_DIR}/examples/agentlocd"
LOADGEN="${BUILD_DIR}/examples/agentloc_loadgen"
SOCK="/tmp/agentloc-smoke-$$.sock"
TCP_PORT=$((20000 + $$ % 20000))

for bin in "${AGENTLOCD}" "${LOADGEN}"; do
  if [ ! -x "${bin}" ]; then
    echo "transport_smoke: missing binary ${bin} (build the examples first)" >&2
    exit 1
  fi
done

# Probe first: containers without AF_UNIX support skip, not fail.
"${AGENTLOCD}" --probe
probe_rc=$?
if [ "${probe_rc}" -eq 77 ]; then
  echo "transport_smoke: SKIP (sandbox cannot create sockets)"
  exit 77
elif [ "${probe_rc}" -ne 0 ]; then
  echo "transport_smoke: probe failed with ${probe_rc}" >&2
  exit 1
fi

cleanup() {
  if [ -n "${server_pid:-}" ]; then
    kill "${server_pid}" 2>/dev/null
    wait "${server_pid}" 2>/dev/null
  fi
  rm -f "${SOCK}" "${SOCK}".w*
}
trap cleanup EXIT

stop_server() {
  if [ -n "${server_pid:-}" ]; then
    kill "${server_pid}" 2>/dev/null
    wait "${server_pid}" 2>/dev/null
    server_pid=""
  fi
  rm -f "${SOCK}" "${SOCK}".w*
}

# wait_for_uds SOCKET — block until the path exists or the server died.
wait_for_uds() {
  for _ in $(seq 1 100); do
    [ -S "$1" ] && return 0
    if ! kill -0 "${server_pid}" 2>/dev/null; then
      echo "transport_smoke: agentlocd exited before binding" >&2
      return 1
    fi
    sleep 0.02
  done
  echo "transport_smoke: $1 never appeared" >&2
  return 1
}

# run_loadgen ARGS... — fail the smoke on any nonzero loadgen exit.
run_loadgen() {
  "${LOADGEN}" "$@" --agents 500 --ops 5000 --verify true
  loadgen_rc=$?
  if [ "${loadgen_rc}" -ne 0 ]; then
    echo "transport_smoke: loadgen FAILED (rc=${loadgen_rc})" >&2
    exit 1
  fi
}

# --- round 1: UDS loopback, single worker ------------------------------------
"${AGENTLOCD}" --listen "unix:${SOCK}" --partitions 8 --quiet &
server_pid=$!
wait_for_uds "${SOCK}" || exit 1
run_loadgen --connect "unix:${SOCK}"
stop_server
echo "transport_smoke: UDS round OK"

# --- round 2: TCP loopback ---------------------------------------------------
"${AGENTLOCD}" --listen "tcp:127.0.0.1:${TCP_PORT}" --partitions 8 --quiet &
server_pid=$!
sleep 0.2  # TCP has no socket file to poll; the listener binds before serving
if ! kill -0 "${server_pid}" 2>/dev/null; then
  echo "transport_smoke: agentlocd (tcp) exited before serving" >&2
  exit 1
fi
run_loadgen --connect "tcp:127.0.0.1:${TCP_PORT}"
stop_server
echo "transport_smoke: TCP round OK"

# --- round 3: sharded workers + routing client -------------------------------
"${AGENTLOCD}" --listen "unix:${SOCK}" --partitions 8 --workers 4 --quiet &
server_pid=$!
wait_for_uds "${SOCK}.w3" || exit 1
run_loadgen --connect "unix:${SOCK}" --cluster true
stop_server
echo "transport_smoke: multi-worker round OK"

echo "transport_smoke: OK"
exit 0
