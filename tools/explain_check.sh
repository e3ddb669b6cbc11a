#!/usr/bin/env bash
# End-to-end check of the provenance/explain surface: builds the CLI and
# the replay verifier, then repairs the paper's running example four
# ways (--algorithm greedy|appro x --threads 1|4) with --explain-json
# and --audit-log. Each run's report schema and NDJSON stream are
# validated and the report is replayed with ftrepair_verify (which
# recomputes every cost and violation claim from scratch and fails on
# any mismatch). The `decisions` and `changes` arrays — which carry the
# decoded source/target/peer values — must be byte-identical across
# the two thread counts of each algorithm.
# Usage: tools/explain_check.sh [build-dir]
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"

cmake -B "${build_dir}" -S "${repo_root}" >/dev/null
cmake --build "${build_dir}" -j "$(nproc)" \
  --target ftrepair_cli --target ftrepair_verify >/dev/null

work_dir="$(mktemp -d)"
trap 'rm -rf "${work_dir}"' EXIT

# The paper's running example: single-FD (phi1) and multi-FD (phi2+phi3
# share City) components, so both provenance paths are exercised.
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

# One repair per (algorithm, threads); reports land in
# ${work_dir}/<algorithm>-<threads>.{json,ndjson}.
reports=()
for algorithm in greedy appro; do
  for threads in 1 4; do
    run="${work_dir}/${algorithm}-${threads}"
    "${build_dir}/tools/ftrepair" \
      --input "${work_dir}/dirty.csv" \
      --fds "${work_dir}/fds.txt" \
      --algorithm "${algorithm}" --threads "${threads}" \
      --tau-fd phi1=0.30 --tau-fd phi2=0.5 --tau-fd phi3=0.5 \
      --wl 0.5 --wr 0.5 \
      --explain-json="${run}.json" \
      --audit-log="${run}.ndjson" \
      --explain 5,1 >/dev/null
    for f in "${run}.json" "${run}.ndjson"; do
      if [[ ! -s "${f}" ]]; then
        echo "FAIL: ${f} missing or empty" >&2
        exit 1
      fi
    done
    reports+=("${run}")
  done
done

python3 - "${reports[@]}" <<'EOF'
import json
import sys


def check_run(run):
    """Validates one run's report and audit stream; returns the report."""
    with open(run + ".json") as f:
        report = json.load(f)  # raises on invalid JSON
    if report.get("schema_version") != 1:
        sys.exit(f"FAIL {run}: unexpected schema_version "
                 f"{report.get('schema_version')}")
    for key in ("generator", "algorithm", "input", "fds", "components",
                "stats", "ledger", "memory", "degradations", "decisions",
                "changes"):
        if key not in report:
            sys.exit(f"FAIL {run}: explain report lacks '{key}'")
    if not report["decisions"]:
        sys.exit(f"FAIL {run}: explain report has no decisions")
    if not report["changes"]:
        sys.exit(f"FAIL {run}: explain report has no changes")
    ledger = report["ledger"]
    if not ledger.get("reconciled"):
        sys.exit(f"FAIL {run}: ledger does not reconcile: {ledger}")
    if abs(ledger["total"] - report["stats"]["repair_cost"]) > 1e-9:
        sys.exit(f"FAIL {run}: ledger total != stats.repair_cost")
    replayed = sum(c["cost_delta"] for c in report["changes"])
    if abs(replayed - ledger["total"]) > 1e-9:
        sys.exit(f"FAIL {run}: per-change deltas do not sum to the ledger "
                 "total")
    for change in report["changes"]:
        if not 0 <= change["decision"] < len(report["decisions"]):
            sys.exit(f"FAIL {run}: change points at missing decision: "
                     f"{change}")
    for decision in report["decisions"]:
        if decision["rung"] not in ("exact", "greedy", "appro", "constant"):
            sys.exit(f"FAIL {run}: unknown solver rung: {decision['rung']}")
        if len(decision["cols"]) != len(decision["target_values"]):
            sys.exit(f"FAIL {run}: decision cols/values disagree: "
                     f"{decision}")

    events = []
    with open(run + ".ndjson") as f:
        for line in f:
            events.append(json.loads(line))  # raises on invalid NDJSON
    if not events or events[0]["event"] != "run_start":
        sys.exit(f"FAIL {run}: audit log does not start with run_start")
    if events[-1]["event"] != "run_end":
        sys.exit(f"FAIL {run}: audit log does not end with run_end")
    decisions = [e for e in events if e["event"] == "decision"]
    if len(decisions) != len(report["decisions"]):
        sys.exit(f"FAIL {run}: audit log has {len(decisions)} decisions, "
                 f"report has {len(report['decisions'])}")
    print(f"OK {run.rsplit('/', 1)[-1]}: {len(report['decisions'])} "
          f"decisions, {len(report['changes'])} changes, "
          f"{len(events)} audit events")
    return report


reports = {run: check_run(run) for run in sys.argv[1:]}
# Thread count is a speed knob only: per algorithm, the decision lineage
# (with its decoded values) and the change list must serialize to the
# same bytes at threads 1 and 4.
for algorithm in ("greedy", "appro"):
    one, four = (r for run, r in reports.items()
                 if run.rsplit("/", 1)[-1].startswith(algorithm + "-"))
    for key in ("decisions", "changes"):
        if json.dumps(one[key]) != json.dumps(four[key]):
            sys.exit(f"FAIL: {algorithm} '{key}' differ between threads "
                     "1 and 4")
    print(f"OK {algorithm}: decisions and changes identical at threads 1, 4")
EOF

for run in "${reports[@]}"; do
  "${build_dir}/tools/ftrepair_verify" \
    --input "${work_dir}/dirty.csv" --report "${run}.json"
done

echo "explain_check: PASS"
