# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench examples bugs smoke journals perfbench-smoke clean

all: build

build:
	dune build @all

test:
	dune runtest --force

bench:
	dune exec bench/main.exe

# Reproduce the corpus (exits non-zero if any case regresses).
bugs:
	dune exec bin/sieve_cli.exe -- bugs

# Build + exercise the CLI end to end: corpus listing, one bug
# reproduction, a per-tag engine profile, and a JSONL trace dump
# validated by the trace reader. The same checks run from `dune runtest`
# (see test/dune).
smoke:
	dune build @all
	dune exec bin/sieve_cli.exe -- list
	dune exec bin/sieve_cli.exe -- bugs k8s-56261
	dune exec bin/sieve_cli.exe -- profile k8s-56261 --json
	dune exec bin/sieve_cli.exe -- trace k8s-56261 --json > _build/smoke-trace.jsonl
	dune exec test/validate_jsonl.exe _build/smoke-trace.jsonl

# Re-run the three fixed-seed hunts pinned in HUNT_JOURNAL.sha256 and
# fail unless each journal is byte-identical to its pinned sha256.
journals:
	rm -rf _hunt-journals
	dune exec bin/sieve_cli.exe -- hunt \
	  --budget 160 --seed 42 --jobs 1 --quiet --out _hunt-journals/kube
	dune exec bin/sieve_cli.exe -- hunt REP-STALE REP-CHURN REP-MINORITY REP-RECOVER \
	  --budget 0 --seed 42 --jobs 1 --quiet --out _hunt-journals/rep
	dune exec bin/sieve_cli.exe -- hunt HB-ASSIGN HB-WATCH HB-FOLLOWER \
	  --budget 0 --seed 42 --jobs 1 --quiet --out _hunt-journals/hbase
	sha256sum _hunt-journals/kube/journal.jsonl _hunt-journals/rep/journal.jsonl \
	  _hunt-journals/hbase/journal.jsonl
	for pin in kube rep hbase; do \
	  grep -q "$$(sha256sum _hunt-journals/$$pin/journal.jsonl | cut -d' ' -f1)  $$pin:" \
	    HUNT_JOURNAL.sha256 || { echo "journal $$pin differs from its pin"; exit 1; }; \
	done

# Run the benchmark for 5 s on each workload with tracing on, and fail
# unless every run's last line reports "correct": true. Its gates include
# the call-by-call replay of Campaign.plan's dispatch order.
perfbench-smoke:
	for w in hunt-kube hunt-rep-hbase soak-kube; do \
	  python3 perfbench/run.py --workload $$w --seed 42 --seconds 5 --trace 1 \
	    > _build/perfbench-smoke.out || { echo "perfbench $$w: exit $$?"; exit 1; }; \
	  tail -n 1 _build/perfbench-smoke.out | python3 -c \
	    'import json, sys; r = json.load(sys.stdin); print(sys.argv[1], "correct:", r["correct"], "failed:", r["failed"]); sys.exit(r["correct"] is not True)' \
	    $$w || exit 1; \
	done

examples:
	dune exec examples/quickstart.exe
	dune exec examples/rolling_upgrade.exe
	dune exec examples/cassandra_scaledown.exe
	dune exec examples/epoch_model.exe
	dune exec examples/replicated_store.exe
	dune exec examples/hbase_regions.exe

clean:
	dune clean
