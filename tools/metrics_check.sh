#!/usr/bin/env bash
# End-to-end check of the observability surface: builds the CLI, runs a
# repair with --metrics-json and --trace-json, and fails if either file
# is missing, is not valid JSON, or lacks the keys the pipeline is
# supposed to emit (per-phase counters, the end-to-end latency
# histogram, and trace spans covering detect -> solve -> targets ->
# apply). Usage: tools/metrics_check.sh [build-dir]
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"

cmake -B "${build_dir}" -S "${repo_root}" >/dev/null
cmake --build "${build_dir}" -j "$(nproc)" --target ftrepair_cli >/dev/null

work_dir="$(mktemp -d)"
trap 'rm -rf "${work_dir}"' EXIT

# The paper's running example: phi2 and phi3 share City, so the
# multi-FD component (target tree / AssignTargets) is exercised too.
cat > "${work_dir}/dirty.csv" <<'EOF'
Name,Education,Level,City,Street,District,State
Janaina,Bachelors,3,New York,Main,Manhattan,NY
Aloke,Bachelors,3,New York,Main,Manhattan,NY
Jieyu,Bachelors,3,New York,Western,Queens,NY
Paulo,Masters,4,New York,Western,Queens,MA
Zoe,Masters,4,Boston,Main,Manhattan,NY
Gara,Masers,4,Boston,Main,Financial,MA
Mitchell,HS-grad,9,Boston,Main,Financial,MA
Pavol,Masters,3,Boton,Arlingto,Brookside,MA
Thilo,Bachelors,1,Boston,Arlingto,Brookside,MA
Nenad,Bachelers,3,Boston,Arlingto,Brookside,NY
EOF
cat > "${work_dir}/fds.txt" <<'EOF'
phi1: Education -> Level
phi2: City -> State
phi3: City, Street -> District
EOF

metrics_json="${work_dir}/metrics.json"
trace_json="${work_dir}/trace.json"
deadline_json="${work_dir}/deadline_metrics.json"

"${build_dir}/tools/ftrepair" \
  --input "${work_dir}/dirty.csv" \
  --fds "${work_dir}/fds.txt" \
  --tau-fd phi1=0.30 --tau-fd phi2=0.5 --tau-fd phi3=0.5 \
  --wl 0.5 --wr 0.5 \
  --metrics-json="${metrics_json}" \
  --trace-json="${trace_json}" >/dev/null

# A 1 us deadline is past by the time the repair returns, so the run
# must observe the budget overshoot histogram.
"${build_dir}/tools/ftrepair" \
  --input "${work_dir}/dirty.csv" \
  --fds "${work_dir}/fds.txt" \
  --tau-fd phi1=0.30 --tau-fd phi2=0.5 --tau-fd phi3=0.5 \
  --wl 0.5 --wr 0.5 --deadline-ms 0.001 \
  --metrics-json="${deadline_json}" >/dev/null

for f in "${metrics_json}" "${trace_json}" "${deadline_json}"; do
  if [[ ! -s "${f}" ]]; then
    echo "FAIL: ${f} missing or empty" >&2
    exit 1
  fi
done

python3 - "${metrics_json}" "${trace_json}" "${deadline_json}" <<'EOF'
import json
import sys

metrics_path, trace_path, deadline_path = sys.argv[1:4]

with open(metrics_path) as f:
    metrics = json.load(f)  # raises on invalid JSON

counters = metrics.get("counters", {})
histograms = metrics.get("histograms", {})
missing = [
    key
    for key in (
        "ftrepair.phase.detect_us",
        "ftrepair.phase.graph_us",
        "ftrepair.phase.solve_us",
        "ftrepair.phase.targets_us",
        "ftrepair.phase.apply_us",
        "ftrepair.phase.stats_us",
        "ftrepair.repair.runs",
        "ftrepair.ingest.rows_read",
        "ftrepair.targets.distance_evals",
        "ftrepair.targets.table_bytes",
        "ftrepair.solve.greedy_rounds",
        "ftrepair.solve.candidates_rescored",
        "ftrepair.solve.target_scores",
    )
    if key not in counters
]
if missing:
    sys.exit(f"FAIL: metrics snapshot lacks counters: {missing}")
if not histograms:
    sys.exit("FAIL: metrics snapshot has no latency histograms")
if "ftrepair.repair.total_ms" not in histograms:
    sys.exit("FAIL: metrics snapshot lacks ftrepair.repair.total_ms")
if metrics["counters"]["ftrepair.repair.runs"] < 1:
    sys.exit("FAIL: ftrepair.repair.runs counter never incremented")
if metrics["counters"]["ftrepair.targets.distance_evals"] < 1:
    sys.exit("FAIL: target assignment filled no distance table")
if metrics["counters"]["ftrepair.solve.target_scores"] < 1:
    sys.exit("FAIL: the Greedy-M solve scored no target")
# One detection phase: each of the 3 FDs is detected once before the
# solve and once by the after count, nowhere else.
builds = histograms.get("ftrepair.detect.graph_build_ms", {}).get("count")
if builds != 6:
    sys.exit("FAIL: ftrepair.detect.graph_build_ms must count 2 x 3 FDs = 6 "
             f"detections (got {builds})")

with open(deadline_path) as f:
    deadline = json.load(f)
overshoot = deadline.get("histograms", {}).get("ftrepair.budget.overshoot_ms")
if not overshoot or overshoot["count"] != 1:
    sys.exit("FAIL: an exhausted deadline run must observe "
             f"ftrepair.budget.overshoot_ms once (got {overshoot})")

with open(trace_path) as f:
    trace = json.load(f)

events = trace.get("traceEvents")
if not isinstance(events, list) or not events:
    sys.exit("FAIL: trace JSON has no traceEvents")
names = {e.get("name", "") for e in events}
for needed in (
    "ingest.read_csv",
    "repair.detect",
    "detect.graph_build",
    "targets.assign",
    "targets.distance_table",
    "repair.total",
):
    if needed not in names:
        sys.exit(f"FAIL: trace lacks span '{needed}' (have: {sorted(names)})")
detect_spans = sum(1 for e in events if e.get("name") == "repair.detect")
if detect_spans != 1:
    sys.exit(f"FAIL: trace must hold one repair.detect span (got {detect_spans})")
if not any(n.endswith(("solve_single", "solve_multi")) for n in names):
    sys.exit(f"FAIL: trace lacks a solver span (have: {sorted(names)})")
if not any(n.startswith("repair.apply") for n in names):
    sys.exit(f"FAIL: trace lacks an apply span (have: {sorted(names)})")

print(
    f"OK: {len(counters)} counters, {len(histograms)} histograms, "
    f"{len(events)} trace events"
)
EOF

echo "metrics_check: PASS"
