#!/usr/bin/env sh
# Repo CI gate. Run from the repo root:
#
#   ./ci.sh
#
# Mirrors what the driver enforces: formatting, lint-clean at -D warnings,
# and the tier-1 suite (release build + the root package's tests), then
# runs every crate's tests across the workspace.
set -eu

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> workspace: cargo test -q --workspace"
cargo test -q --workspace

echo "==> benchmark: cargo test --release --offline --manifest-path perfbench/Cargo.toml"
# The benchmark's own tests hold the only check that the trainer's tree 0
# equals perfbench's serial replay of it under the dense and the sparse
# quantized wire. Building the benchmark can rewrite perfbench/Cargo.lock
# (cargo prunes dependencies the workspace dropped); that file changes only
# with the benchmark, so it is put back whatever the tests return.
LOCK_COPY=$(mktemp)
cp perfbench/Cargo.lock "$LOCK_COPY"
set +e
cargo test --release --offline --manifest-path perfbench/Cargo.toml
status=$?
set -e
cp "$LOCK_COPY" perfbench/Cargo.lock
rm -f "$LOCK_COPY"
if [ "$status" -ne 0 ]; then
  exit "$status"
fi

echo "==> observability smoke: determinism gate + trace check"
cargo build --release -q -p dimboost-cli -p dimboost-bench
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT
BIN=target/release
"$BIN/dimboost" gen --out "$SMOKE/train.libsvm" --rows 600 --features 60 --nnz 12 --seed 7

# Two identical runs must agree byte for byte: canonical reports, canonical
# traces, and a report_diff exit status of 0. The batch size is forced far
# below the shard size so the histogram builders genuinely run multi-threaded
# — this cmp is what catches any scheduling-dependent histogram race.
for run in a b; do
  "$BIN/dimboost" train --data "$SMOKE/train.libsvm" --model "$SMOKE/model_$run.json" \
    --trees 3 --depth 4 --workers 3 --servers 2 --seed 7 \
    --threads 4 --batch-size 25 \
    --report-canonical "$SMOKE/report_$run.json" \
    --trace "$SMOKE/trace_$run.json" \
    --trace-canonical "$SMOKE/trace_$run.canonical.json" \
    --trace-events "$SMOKE/train_$run.events" \
    --profile "$SMOKE/train_$run.profile.json" > /dev/null
done
cmp "$SMOKE/report_a.json" "$SMOKE/report_b.json"
cmp "$SMOKE/trace_a.canonical.json" "$SMOKE/trace_b.canonical.json"
cmp "$SMOKE/train_a.events" "$SMOKE/train_b.events"
cmp "$SMOKE/train_a.profile.json" "$SMOKE/train_b.profile.json"
"$BIN/report_diff" "$SMOKE/report_a.json" "$SMOKE/report_b.json"
"$BIN/trace_check" --workers 3 --servers 2 \
  "$SMOKE/trace_a.json" "$SMOKE/trace_a.canonical.json"

echo "==> analyze: trace profile must be byte-stable and self-checking"
# The offline profiler over the exported events text must reproduce the
# in-process --profile artifact byte for byte, stay byte-identical across
# reruns, and pass report_diff like every other canonical report.
"$BIN/trace_analyze" --out "$SMOKE/profile_a.json" \
  --folded "$SMOKE/profile_a.folded" "$SMOKE/train_a.events" > /dev/null
"$BIN/trace_analyze" --out "$SMOKE/profile_b.json" "$SMOKE/train_b.events" > /dev/null
cmp "$SMOKE/profile_a.json" "$SMOKE/profile_b.json"
cmp "$SMOKE/profile_a.json" "$SMOKE/train_a.profile.json"
"$BIN/report_diff" "$SMOKE/profile_a.json" "$SMOKE/profile_b.json"
grep -q '^net;' "$SMOKE/profile_a.folded"

# The profiler's structural checks must bite: zeroing a mid-stream
# collective's duration breaks the critical-path tiling identity, and
# inflating the last service's duration breaks busy + idle == span
# conservation. Both corrupted fixtures still parse — the failures must
# come from the analyzer (exit 1), not the parser (exit 2).
awk '/ kind=collective / && !(/ dur=0 /) { n++; if (n == 2) sub(/ dur=[^ ]*/, " dur=0") } { print }' \
  "$SMOKE/train_a.events" > "$SMOKE/corrupt_path.events"
set +e
"$BIN/trace_analyze" "$SMOKE/corrupt_path.events" > /dev/null 2> "$SMOKE/corrupt_path.err"
status=$?
set -e
if [ "$status" -ne 1 ] || ! grep -q 'tile' "$SMOKE/corrupt_path.err"; then
  echo "corrupted collective should break the critical-path identity (got $status)" >&2
  cat "$SMOKE/corrupt_path.err" >&2
  exit 1
fi
line=$(grep -n ' kind=service ' "$SMOKE/train_a.events" | tail -1 | cut -d: -f1)
sed "${line}s/ dur=/ dur=9/" "$SMOKE/train_a.events" > "$SMOKE/corrupt_busy.events"
set +e
"$BIN/trace_analyze" "$SMOKE/corrupt_busy.events" > /dev/null 2> "$SMOKE/corrupt_busy.err"
status=$?
set -e
if [ "$status" -ne 1 ] || ! grep -q 'conserv' "$SMOKE/corrupt_busy.err"; then
  echo "corrupted service should break busy/idle conservation (got $status)" >&2
  cat "$SMOKE/corrupt_busy.err" >&2
  exit 1
fi

# A differing configuration (low-precision wire format) must be flagged.
"$BIN/dimboost" train --data "$SMOKE/train.libsvm" --model "$SMOKE/model_lp.json" \
  --trees 3 --depth 4 --workers 3 --servers 2 --seed 7 --bits 4 \
  --report-canonical "$SMOKE/report_lp.json" > /dev/null
if "$BIN/report_diff" --quiet "$SMOKE/report_a.json" "$SMOKE/report_lp.json" 2> /dev/null; then
  echo "report_diff failed to flag a low-precision vs full-precision run" >&2
  exit 1
fi

echo "==> serving: compiled engine must score bit-identically across reruns"
# Two multi-threaded bench runs over the smoke model: score files and
# canonical serving reports must be byte-identical, and report_diff must
# accept the timed reports (only wall-clock fields may differ).
for run in a b; do
  "$BIN/dimboost" bench --data "$SMOKE/train.libsvm" --model "$SMOKE/model_a.json" \
    --threads 4 --batch-size 64 --repeats 3 \
    --scores "$SMOKE/scores_$run.txt" \
    --report "$SMOKE/serving_$run.json" \
    --report-canonical "$SMOKE/serving_$run.canonical.json" > /dev/null
done
cmp "$SMOKE/scores_a.txt" "$SMOKE/scores_b.txt"
cmp "$SMOKE/serving_a.canonical.json" "$SMOKE/serving_b.canonical.json"
"$BIN/report_diff" "$SMOKE/serving_a.json" "$SMOKE/serving_b.json"
# The single-row predict path must agree with the batch engine byte for byte.
"$BIN/dimboost" predict --data "$SMOKE/train.libsvm" --model "$SMOKE/model_a.json" \
  --threads 2 --batch-size 100 --output "$SMOKE/predict.txt"
cmp "$SMOKE/scores_a.txt" "$SMOKE/predict.txt"

echo "==> fused kernel: perf gates + canonical identity + bit-identical training"
# Two small hist_kernel_bench runs: the first gates the fused kernel at 1.5x
# the per-node binned path's wall time and the quantized kernel at 1.1x
# *faster* than f32 fused at every thread count (both on the wide preset,
# where kernel throughput rather than per-call overhead dominates); the pair
# must be canonical-report identical (all throughput fields and the
# quantized_speedup ratios are wall-only and ignored by report_diff's
# built-in rules — structure and checksums must match).
HIST_SIZES="--rows 4000 --features 80 --nnz 10 --nodes 8 \
  --wide-rows 40000 --wide-features 200 --wide-nnz 16 --wide-nodes 16"
"$BIN/hist_kernel_bench" $HIST_SIZES \
  --rounds 8 --batch-size 256 --seed 5 --threads-list 1,4 \
  --out "$SMOKE/hist_a.json" --assert-fused-ratio 1.5 \
  --assert-quantized-ratio 1.1 > /dev/null
"$BIN/hist_kernel_bench" $HIST_SIZES \
  --rounds 8 --batch-size 256 --seed 5 --threads-list 1,4 \
  --out "$SMOKE/hist_b.json" > /dev/null
"$BIN/report_diff" "$SMOKE/hist_a.json" "$SMOKE/hist_b.json"
# The quantized kernel's cross-thread-count bit-equality verdict must be
# recorded — and true — for every problem in the report (the bench also
# hard-fails on inequality; this guards the report plumbing itself).
if [ "$(grep -o '"quantized_checksums_equal":true' "$SMOKE/hist_a.json" | wc -l)" -ne 2 ] \
  || grep -q '"quantized_checksums_equal":false' "$SMOKE/hist_a.json"; then
  echo "hist bench did not record quantized checksum equality for both problems" >&2
  exit 1
fi
# Multi-threaded --fused-layer training must be bit-identical across reruns:
# same model bytes, same canonical report, and report_diff-clean.
for run in a b; do
  "$BIN/dimboost" train --data "$SMOKE/train.libsvm" --model "$SMOKE/model_fused_$run.json" \
    --trees 3 --depth 4 --workers 3 --servers 2 --seed 7 \
    --threads 4 --batch-size 25 --fused-layer \
    --report-canonical "$SMOKE/report_fused_$run.json" > /dev/null
done
cmp "$SMOKE/model_fused_a.json" "$SMOKE/model_fused_b.json"
cmp "$SMOKE/report_fused_a.json" "$SMOKE/report_fused_b.json"
"$BIN/report_diff" "$SMOKE/report_fused_a.json" "$SMOKE/report_fused_b.json"

echo "==> quantized histograms: bit-identical across thread counts and kernels"
# The f32 gate above compares reruns of ONE configuration; the quantized
# accumulator makes the stronger claim — integer sums are associative, so
# the model must not depend on the thread count, the batch size, or the
# per-node vs fused kernel at all. Train at --threads 2 and --threads 8
# with different batch sizes: model bytes cmp-identical, canonical reports
# cmp-identical, report_diff exit 0.
"$BIN/dimboost" train --data "$SMOKE/train.libsvm" --model "$SMOKE/model_q2.json" \
  --trees 3 --depth 4 --workers 3 --servers 2 --seed 7 \
  --threads 2 --batch-size 25 --quantized-hist --fused-layer \
  --report-canonical "$SMOKE/report_q2.json" > /dev/null
"$BIN/dimboost" train --data "$SMOKE/train.libsvm" --model "$SMOKE/model_q8.json" \
  --trees 3 --depth 4 --workers 3 --servers 2 --seed 7 \
  --threads 8 --batch-size 64 --quantized-hist --fused-layer \
  --report-canonical "$SMOKE/report_q8.json" > /dev/null
cmp "$SMOKE/model_q2.json" "$SMOKE/model_q8.json"
cmp "$SMOKE/report_q2.json" "$SMOKE/report_q8.json"
"$BIN/report_diff" "$SMOKE/report_q2.json" "$SMOKE/report_q8.json"
# The per-node quantized kernel (no --fused-layer) must produce the same
# model bytes as the fused legs — the kernels share one fixed-point format.
"$BIN/dimboost" train --data "$SMOKE/train.libsvm" --model "$SMOKE/model_qpn.json" \
  --trees 3 --depth 4 --workers 3 --servers 2 --seed 7 \
  --threads 4 --batch-size 25 --quantized-hist > /dev/null
cmp "$SMOKE/model_q2.json" "$SMOKE/model_qpn.json"
# The quantized telemetry must surface in the canonical report.
grep -q '"quant_hist":{"bits":' "$SMOKE/report_q2.json"

echo "==> sparse exchange: compressed frames must shrink the wire, never the model"
# A wide, very sparse dataset is where block-distributed sparse frames pay
# off: most (stripe, feature-block) histogram deltas are empty or nearly so.
"$BIN/dimboost" gen --out "$SMOKE/wide.libsvm" --rows 500 --features 400 --nnz 8 --seed 9
for run in dense sparse; do
  flag=""
  [ "$run" = sparse ] && flag="--sparse-wire"
  "$BIN/dimboost" train --data "$SMOKE/wide.libsvm" --model "$SMOKE/model_wide_$run.json" \
    --trees 3 --depth 4 --workers 3 --servers 2 --seed 7 \
    --threads 4 --batch-size 64 $flag \
    --report-canonical "$SMOKE/report_wide_$run.json" > /dev/null
done
# Headline invariant: the sparse exchange is an encoding, not an algorithm —
# model bytes are cmp-identical and the report agrees on everything but the
# wire accounting (report_diff --wire keeps losses, gains, node instances and
# hist_bytes_raw strict).
cmp "$SMOKE/model_wide_dense.json" "$SMOKE/model_wide_sparse.json"
"$BIN/report_diff" --wire "$SMOKE/report_wide_dense.json" "$SMOKE/report_wide_sparse.json"
# The compression must actually bite: at least 2x fewer histogram bytes on
# the wire, and the per-message encoding choices must be recorded — a wide
# sparse grid that never picks a compressed layout means the selector is dead.
raw=$(sed -n 's/.*"sparsity":{"raw_bytes":\([0-9]*\),.*/\1/p' "$SMOKE/report_wide_sparse.json")
wire=$(sed -n 's/.*"wire_bytes":\([0-9]*\),"reduction_x".*/\1/p' "$SMOKE/report_wide_sparse.json")
if [ -z "$raw" ] || [ -z "$wire" ] || [ "$raw" -lt $((wire * 2)) ]; then
  echo "sparse wire reduction below 2x (raw=${raw:-?} wire=${wire:-?})" >&2
  exit 1
fi
bitmap=$(sed -n 's/.*"sparsity":.*"bitmap":\([0-9]*\),.*/\1/p' "$SMOKE/report_wide_sparse.json")
runs=$(sed -n 's/.*"sparsity":.*"runs":\([0-9]*\),.*/\1/p' "$SMOKE/report_wide_sparse.json")
if [ "$((${bitmap:-0} + ${runs:-0}))" -eq 0 ]; then
  echo "sparse run never chose a compressed frame layout" >&2
  exit 1
fi
if grep -q '"sparsity":' "$SMOKE/report_wide_dense.json"; then
  echo "dense run must not emit a sparsity section" >&2
  exit 1
fi
# Sparse runs stay bit-deterministic across reruns.
"$BIN/dimboost" train --data "$SMOKE/wide.libsvm" --model "$SMOKE/model_wide_sparse2.json" \
  --trees 3 --depth 4 --workers 3 --servers 2 --seed 7 \
  --threads 4 --batch-size 64 --sparse-wire \
  --report-canonical "$SMOKE/report_wide_sparse2.json" > /dev/null
cmp "$SMOKE/report_wide_sparse.json" "$SMOKE/report_wide_sparse2.json"
# Quantized path: the sparse frame carries codes, scales and zero buckets —
# still bit-identical to the dense quantized run.
for run in dense sparse; do
  flag=""
  [ "$run" = sparse ] && flag="--sparse-wire"
  "$BIN/dimboost" train --data "$SMOKE/wide.libsvm" --model "$SMOKE/model_wq_$run.json" \
    --trees 3 --depth 4 --workers 3 --servers 2 --seed 7 --bits 4 \
    --threads 4 --batch-size 64 $flag \
    --report-canonical "$SMOKE/report_wq_$run.json" > /dev/null
done
cmp "$SMOKE/model_wq_dense.json" "$SMOKE/model_wq_sparse.json"
"$BIN/report_diff" --wire "$SMOKE/report_wq_dense.json" "$SMOKE/report_wq_sparse.json"

echo "==> serve-sim: open-loop traffic replay must be bit-deterministic"
# Two identical serve-sim runs — seeded arrivals, SLO batching, a hot-swap
# to the low-precision model mid-stream — must agree byte for byte on the
# canonical report and the event trace, and report_diff must accept the
# timed reports (only wall fields may differ).
for run in a b; do
  "$BIN/dimboost" serve-sim --data "$SMOKE/train.libsvm" --model "$SMOKE/model_a.json" \
    --requests 800 --rate 20000 --seed 11 --queue-cap 64 --max-batch 16 \
    --slo 0.02 --swap-at 0.01 --swap-tenant 0 --swap-model "$SMOKE/model_lp.json" \
    --report "$SMOKE/serve_$run.json" \
    --report-canonical "$SMOKE/serve_$run.canonical.json" \
    --trace "$SMOKE/serve_$run.trace.txt" \
    --profile "$SMOKE/serve_$run.profile.json" > /dev/null
done
cmp "$SMOKE/serve_a.canonical.json" "$SMOKE/serve_b.canonical.json"
cmp "$SMOKE/serve_a.trace.txt" "$SMOKE/serve_b.trace.txt"
cmp "$SMOKE/serve_a.profile.json" "$SMOKE/serve_b.profile.json"
"$BIN/report_diff" "$SMOKE/serve_a.json" "$SMOKE/serve_b.json"
# The offline profiler sniffs the serve trace header and must reproduce the
# in-process --profile artifact byte for byte, report_diff-clean.
"$BIN/trace_analyze" --out "$SMOKE/serve_offline.profile.json" \
  "$SMOKE/serve_a.trace.txt" > /dev/null
cmp "$SMOKE/serve_offline.profile.json" "$SMOKE/serve_a.profile.json"
"$BIN/report_diff" "$SMOKE/serve_offline.profile.json" "$SMOKE/serve_b.profile.json"
# Overload leg: offered load far beyond saturation against a tiny queue must
# engage admission control — a run that never sheds means the policy is dead.
"$BIN/dimboost" serve-sim --data "$SMOKE/train.libsvm" --model "$SMOKE/model_a.json" \
  --requests 400 --rate 1000000 --seed 3 --queue-cap 4 --max-batch 8 \
  --slo 0.005 --report-canonical "$SMOKE/serve_overload.json" > /dev/null
if grep -q '"shed":0,' "$SMOKE/serve_overload.json"; then
  echo "serve-sim overload run shed nothing — load shedding is not engaging" >&2
  exit 1
fi

echo "==> chaos: faults + crash/resume must change timing, never the model"
cat > "$SMOKE/plan.txt" <<'EOF'
# Canned chaos: lossy network, a histogram-phase straggler, a server
# outage window, and a scripted worker crash at round 2.
seed 77
drop 0.15
ack_drop 0.1
dup 0.1
straggler worker=1 factor=3.0 phase=build_histogram
outage server=0 start=0.01 dur=0.05
crash round=2
EOF
# The faulted leg dies at the scripted crash (exit 3, not a real failure)...
set +e
"$BIN/dimboost" train --data "$SMOKE/train.libsvm" --model "$SMOKE/model_chaos.json" \
  --trees 3 --depth 4 --workers 3 --servers 2 --seed 7 \
  --threads 4 --batch-size 25 \
  --fault-plan "$SMOKE/plan.txt" --checkpoint-dir "$SMOKE/ckpt" > /dev/null 2>&1
status=$?
set -e
if [ "$status" -ne 3 ]; then
  echo "expected the scripted crash to exit with status 3, got $status" >&2
  exit 1
fi
# ...and resumes from the checkpoint to completion.
"$BIN/dimboost" train --data "$SMOKE/train.libsvm" --model "$SMOKE/model_chaos.json" \
  --trees 3 --depth 4 --workers 3 --servers 2 --seed 7 \
  --threads 4 --batch-size 25 \
  --fault-plan "$SMOKE/plan.txt" --checkpoint-dir "$SMOKE/ckpt" --resume \
  --report-canonical "$SMOKE/report_chaos.json" \
  --trace-canonical "$SMOKE/trace_chaos.canonical.json" > /dev/null
# Exactness invariant: same model bytes as the clean run, and the report
# agrees on everything but timing and the fault counters.
cmp "$SMOKE/model_a.json" "$SMOKE/model_chaos.json"
"$BIN/report_diff" --faults "$SMOKE/report_a.json" "$SMOKE/report_chaos.json"
"$BIN/trace_check" --workers 3 --servers 2 --expect-faults \
  "$SMOKE/trace_chaos.canonical.json"

echo "==> elasticity: membership churn must change timing, never the model"
cat > "$SMOKE/elastic.txt" <<'EOF'
# Elastic schedule: a fourth machine joins, one retires warm, one is torn
# down cold, one runs on slow hardware, and backups cover stragglers.
join worker=3 round=1
leave worker=0 round=2 policy=handoff
leave worker=1 round=2 policy=redistribute
speed worker=2 factor=2.0
speculate threshold=1.5
EOF
# Two identical elastic runs must agree byte for byte...
for run in a b; do
  "$BIN/dimboost" train --data "$SMOKE/train.libsvm" --model "$SMOKE/model_elastic_$run.json" \
    --trees 3 --depth 4 --workers 3 --servers 2 --seed 7 \
    --threads 4 --batch-size 25 \
    --fault-plan "$SMOKE/elastic.txt" \
    --report-canonical "$SMOKE/report_elastic_$run.json" > /dev/null
done
cmp "$SMOKE/model_elastic_a.json" "$SMOKE/model_elastic_b.json"
cmp "$SMOKE/report_elastic_a.json" "$SMOKE/report_elastic_b.json"
# ...and the headline invariant holds: the model is cmp-identical to the
# fixed-membership run, and the report agrees on everything but timing and
# the fault/membership sections.
cmp "$SMOKE/model_a.json" "$SMOKE/model_elastic_a.json"
"$BIN/report_diff" --faults "$SMOKE/report_a.json" "$SMOKE/report_elastic_a.json"
grep -q '"membership":{"joins":1,"leaves":2,' "$SMOKE/report_elastic_a.json"
# A chronic 8x straggler under speculation: the backups must actually win,
# and the wins must be visible in the trace profile's membership lane.
cat > "$SMOKE/speculate.txt" <<'EOF'
speed worker=1 factor=8.0
speculate threshold=1.5
EOF
"$BIN/dimboost" train --data "$SMOKE/train.libsvm" --model "$SMOKE/model_spec.json" \
  --trees 3 --depth 4 --workers 3 --servers 2 --seed 7 \
  --threads 4 --batch-size 25 \
  --fault-plan "$SMOKE/speculate.txt" \
  --profile "$SMOKE/spec.profile.json" > /dev/null
cmp "$SMOKE/model_a.json" "$SMOKE/model_spec.json"
grep -q 'speculative_backup' "$SMOKE/spec.profile.json"
grep -q 'backup_win' "$SMOKE/spec.profile.json"

echo "CI green."
