#!/usr/bin/env bash
# ThreadSanitizer run for the layers the parallel shard scheduler touches:
# scribe (bucket logs + tailer cursors), core (pipeline/node/checkpoint),
# monitoring (sampler + auto-scaler racing live rounds), the
# serial-vs-parallel differential suite, the continuous engine (per-shard
# event loops + overlapped commit pool + backpressure + executor-teardown
# torture), observability (lock-free histogram recorders + the telemetry
# exporter racing instrumented rounds), and the concurrent LSM (lock-free
# reads racing the writer queue and the background flush/compaction thread,
# plus the leveled engine: L0-pressure preemption of deep merges, deferred
# file GC against pinned iterators, and the table cache),
# the socket Scribe transport (per-connection server threads racing the
# acceptor and Stop; the client's serialized-RPC mutex), the query
# serving layer (block-parallel Scuba scans racing ingest/retention; Laser's
# lock-free read path racing flush/compaction), and Laser's batched ingest
# (Get readers racing PollOnce and LoadRows write batches).
#
# Usage: scripts/tsan.sh [build-dir]   (default: build-tsan)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DFBSTREAM_TSAN=ON
cmake --build "$BUILD_DIR" -j --target \
  scribe_test remote_scribe_test stylus_test monitoring_test \
  parallel_pipeline_test continuous_pipeline_test chaos_test \
  observability_test lsm_concurrency_test lsm_leveled_test \
  query_serving_test laser_test

for t in scribe_test remote_scribe_test stylus_test monitoring_test \
         parallel_pipeline_test continuous_pipeline_test chaos_test \
         observability_test lsm_concurrency_test lsm_leveled_test \
         query_serving_test laser_test; do
  echo "== TSan: $t =="
  TSAN_OPTIONS="halt_on_error=1" "$BUILD_DIR/tests/$t"
done
echo "TSan suite passed."
