# Tier-1 verification: everything CI runs.
.PHONY: check build test explore-smoke por-smoke explore-deep metrics-smoke causal-smoke serve-smoke parbench-smoke memento-smoke forensics-smoke space-smoke elastic-smoke golden-smoke clean figures

check: build test explore-smoke por-smoke metrics-smoke causal-smoke serve-smoke parbench-smoke memento-smoke forensics-smoke space-smoke elastic-smoke golden-smoke

build:
	dune build

test:
	dune runtest

# Bounded exhaustive exploration smoke: a 2-thread x 1-op campaign with
# preemption bound 2 must exhaust its tree with no violation.
explore-smoke:
	dune exec bin/repro.exe -- explore -a tracking -t 2 --ops 1 \
	  --keys 4 --prefill 1 --preemptions 2 --crashes 1 --wb 2 --max-execs 0

# Partial-order reduction smoke: the explore-smoke tree with and without
# --no-reduce must reach the same verdict and coverage, with the reduced
# search running at most a tenth of the executions; the negative control
# must still be caught with reduction on (nonzero exit), and the
# benchmark's tree must be exhausted cleanly with exactly the report in
# test/expected/por-tree-tracking.txt — every count of the search, so a
# change to any scheduling decision shows, not only a changed verdict.
POR_SMOKE = -a tracking -t 2 --ops 1 --keys 4 --prefill 1 --preemptions 2 \
	  --crashes 1 --wb 2 --max-execs 0
POR_TREE = -t 2 --ops 2 --keys 8 --prefill 2 --preemptions 1 --crashes 1 \
	  --wb 1 --max-execs 0 --seed 0
por-smoke:
	dune exec bin/repro.exe -- explore $(POR_SMOKE) 2>/dev/null \
	  > _build/por-reduced.txt
	dune exec bin/repro.exe -- explore $(POR_SMOKE) --no-reduce 2>/dev/null \
	  > _build/por-full.txt
	grep -E '^(failures|coverage) ' _build/por-reduced.txt > _build/por-reduced-verdict.txt
	grep -E '^(failures|coverage) ' _build/por-full.txt > _build/por-full-verdict.txt
	cmp _build/por-reduced-verdict.txt _build/por-full-verdict.txt
	r=$$(awk '/^executions/ {print $$2}' _build/por-reduced.txt); \
	  f=$$(awk '/^executions/ {print $$2}' _build/por-full.txt); \
	  echo "por-smoke: $$r reduced vs $$f unreduced executions"; \
	  test $$((r * 10)) -le $$f
	! dune exec bin/repro.exe -- explore -a tracking-broken $(POR_TREE) \
	  > /dev/null 2>&1
	dune exec bin/repro.exe -- explore -a tracking $(POR_TREE) 2>/dev/null \
	  > _build/por-tree.txt
	cmp test/expected/por-tree-tracking.txt _build/por-tree.txt

# The benchmark's tree at preemption bound 2: about 560k executions, so
# it runs on two domains and stays out of `make check`.  It must be
# exhausted with no failure.
explore-deep:
	dune exec bin/repro.exe -- explore -a tracking -t 2 --ops 2 --keys 8 \
	  --prefill 2 --preemptions 2 --crashes 1 --wb 1 --max-execs 0 --seed 0 \
	  -j 2 2>/dev/null > _build/explore-deep.txt
	cat _build/explore-deep.txt
	grep -qx 'failures          0' _build/explore-deep.txt
	grep -q '^coverage          complete' _build/explore-deep.txt

# Metrics + Perfetto smoke: a small campaign with metrics and tracing on;
# --validate re-parses the emitted trace_event JSON and requires at least
# one complete span per thread track.  repro stats must report in-memory
# latency/contention/recovery profiles for a crashing seed.
metrics-smoke:
	dune exec bin/repro.exe -- trace -a tracking -t 3 --ops 12 --crashes 2 \
	  --keys 32 --seed 7 --perfetto _build/perfetto-smoke.json --validate
	dune exec bin/repro.exe -- stats -a tracking -t 4 --ops 40 --crashes 2 \
	  --keys 64 --seed 1

# Causal profiler smoke: a tiny what-if sweep whose --check asserts the
# paper's orderings — high-impact pwbs above low-impact per execution,
# psync sensitivity near zero — and exercises the JSON/CSV exporters.
causal-smoke:
	dune exec bin/repro.exe -- causal --quick --check \
	  --json _build/causal-smoke.json --csv _build/causal-smoke.csv

# Store service smoke: crash one shard of a live 4-shard serve; --check
# asserts zero lost requests (oracle-verified per shard) and that the
# surviving shards completed requests inside the recovery window.  The
# second run sweeps every crash point of a tiny 2-shard store.
serve-smoke:
	dune exec bin/repro.exe -- serve --shards 4 --clients 4 --ops 100 \
	  --crash-shard 2 --check
	dune exec bin/repro.exe -- serve --shards 2 --clients 2 --ops 12 \
	  --keys 16 --explore --dispatch-budget 48

# Parallel-driver smoke: the same small campaign suite at -j 1 and -j 2
# must produce byte-identical reports — the determinism contract of the
# domain fan-out driver (lib/harness/parallel.mli).  Progress lines are
# pacing, not results, so they are filtered before comparison; repro
# files and JSON exports are compared raw.
parbench-smoke:
	dune exec bin/repro.exe -- explore -a tracking -t 2 --ops 1 \
	  --keys 4 --prefill 1 --preemptions 2 --crashes 1 --wb 2 --max-execs 0 \
	  -j 1 | grep -v '^\[explore\]' > _build/parbench-explore-j1.txt
	dune exec bin/repro.exe -- explore -a tracking -t 2 --ops 1 \
	  --keys 4 --prefill 1 --preemptions 2 --crashes 1 --wb 2 --max-execs 0 \
	  -j 2 | grep -v '^\[explore\]' > _build/parbench-explore-j2.txt
	cmp _build/parbench-explore-j1.txt _build/parbench-explore-j2.txt
	dune exec bin/repro.exe -- causal --quick -j 1 --json _build/parbench-causal-j1.json
	dune exec bin/repro.exe -- causal --quick -j 2 --json _build/parbench-causal-j2.json
	cmp _build/parbench-causal-j1.json _build/parbench-causal-j2.json
	dune exec bin/repro.exe -- serve --shards 2 --clients 2 --ops 12 \
	  --keys 16 --explore --dispatch-budget 48 -j 1 > _build/parbench-serve-j1.txt
	dune exec bin/repro.exe -- serve --shards 2 --clients 2 --ops 12 \
	  --keys 16 --explore --dispatch-budget 48 -j 2 > _build/parbench-serve-j2.txt
	cmp _build/parbench-serve-j1.txt _build/parbench-serve-j2.txt

# Memento framework smoke: both derived structures must survive crash
# campaigns with oracle verification and exhaust a single-threaded
# exploration tree (no scheduling choices, so every crash point x
# write-back resolution is covered, including the deep confirm-side
# ones); the negative control with the checkpoint persist elided must
# be caught by the same exploration (nonzero exit).
memento-smoke:
	dune exec bin/repro.exe -- crash -a memento-list --seeds 30 -t 4 \
	  --ops 10 --keys 24 --crashes 3
	dune exec bin/repro.exe -- crash -a memento-comb --seeds 30 -t 4 \
	  --ops 10 --keys 24 --crashes 3
	dune exec bin/repro.exe -- explore -a memento-list -t 1 --ops 3 \
	  --keys 3 --prefill 0 --preemptions 0 --crashes 1 --wb 2 --max-execs 0
	dune exec bin/repro.exe -- explore -a memento-comb -t 1 --ops 3 \
	  --keys 3 --prefill 0 --preemptions 0 --crashes 1 --wb 2 --max-execs 0
	! dune exec bin/repro.exe -- explore -a memento-broken -t 1 --ops 3 \
	  --keys 3 --prefill 0 --preemptions 0 --crashes 1 --wb 2 --max-execs 0

# Crash-forensics smoke: `repro explain` on the shipped negative-control
# repros must name the elided persist site in the postmortem, and two
# runs of the same explain must be byte-identical (the determinism
# contract of forensic replay).
forensics-smoke:
	dune exec bin/repro.exe -- explain repros/tracking-broken.repro \
	  | grep -q 'rlist-broken.new.pwb'
	dune exec bin/repro.exe -- explain repros/memento-broken.repro \
	  | grep -q 'mmt-broken.cp.pwb'
	dune exec bin/repro.exe -- explain repros/tracking-broken.repro \
	  > _build/forensics-tb-1.txt
	dune exec bin/repro.exe -- explain repros/tracking-broken.repro \
	  > _build/forensics-tb-2.txt
	cmp _build/forensics-tb-1.txt _build/forensics-tb-2.txt
	dune exec bin/repro.exe -- explain --json repros/memento-broken.repro \
	  > _build/forensics-mb-1.json
	dune exec bin/repro.exe -- explain --json repros/memento-broken.repro \
	  > _build/forensics-mb-2.json
	cmp _build/forensics-mb-1.json _build/forensics-mb-2.json

# Persistent-space accounting smoke: the default variant set must pass
# the detectable-object lower-bound check (--check), report live/meta/
# garbage accounting for the core variants, and render byte-identically
# at -j 1 and -j 4 (the registry is domain-local; see DESIGN.md
# "Persistent-space accounting").
space-smoke:
	dune exec bin/repro.exe -- space --check -j 1 --json _build/space-j1.json \
	  | grep -v '^wrote ' > _build/space-j1.txt
	grep -q 'memento-comb' _build/space-j1.txt
	grep -q 'arXiv 2002.11378' _build/space-j1.txt
	grep -q '"lower_bound_ok":true' _build/space-j1.json
	dune exec bin/repro.exe -- space --check -j 4 --json _build/space-j4.json \
	  | grep -v '^wrote ' > _build/space-j4.txt
	cmp _build/space-j1.txt _build/space-j4.txt
	cmp _build/space-j1.json _build/space-j4.json

# Elastic-store smoke: (1) a live shard split completes under traffic
# and passes the balance gate; (2) a crashed primary fails over to its
# replica with zero lost requests; (3) correlated power loss of BOTH
# migration endpoints — source write-backs dropped, destination's all
# applied — still converges; (4) the crash-point sweep over a migrating
# store proves every key lands in exactly one shard at every crash
# point, and the negative control with the handoff-commit pwb elided is
# caught by the same sweep (nonzero exit).
elastic-smoke:
	dune exec bin/repro.exe -- serve -a tracking --shards 2 --clients 2 \
	  --ops 40 --keys 32 --migrate 0 --migrate-after 10 --check --check-balance 64
	dune exec bin/repro.exe -- serve -a tracking --shards 2 --clients 2 \
	  --ops 40 --keys 32 --replicate --crash-shard 0 --crash-after 20 --check
	dune exec bin/repro.exe -- serve -a tracking --shards 2 --clients 4 \
	  --ops 40 --keys 32 --migrate 0 --migrate-after 5 --crash-both 0,2 \
	  --crash-dispatch 12 --wb drop --wb2 all --check
	dune exec bin/repro.exe -- serve -a tracking --shards 2 --clients 2 \
	  --ops 16 --keys 16 --migrate 0 --migrate-after 3 --explore \
	  --dispatch-budget 200 -j 2
	! dune exec bin/repro.exe -- serve -a tracking --shards 2 --clients 2 \
	  --ops 16 --keys 16 --migrate 0 --migrate-after 3 --broken-handoff \
	  --explore --dispatch-budget 200 -j 2 > /dev/null 2>&1

# Output-format smoke: every artifact the tool writes — explain
# postmortems (text and JSON), campaign and serve repro files, stats /
# space / causal / serve JSON and CSV, Perfetto JSON — regenerated from
# fixed inputs and compared byte for byte against the copies pinned in
# test/expected/golden.  A change to any escaper, number format, field
# order or repro line shows here.  To re-pin after an intended format
# change, copy _build/golden/* over test/expected/golden/.
GOLDEN_FILES = explain-tracking-broken.txt explain-memento-broken.json \
	  explore-tracking-broken.repro serve-broken-handoff.repro \
	  serve-broken-handoff.txt stats.json space.json space.csv causal.json \
	  causal.csv serve.json serve.csv perfetto.json
golden-smoke:
	rm -rf _build/golden && mkdir -p _build/golden
	dune exec bin/repro.exe -- explain repros/tracking-broken.repro \
	  > _build/golden/explain-tracking-broken.txt
	dune exec bin/repro.exe -- explain --json repros/memento-broken.repro \
	  > _build/golden/explain-memento-broken.json
	! dune exec bin/repro.exe -- explore -a tracking-broken $(POR_TREE) \
	  --repro _build/golden/explore-tracking-broken.repro > /dev/null 2>&1
	! dune exec bin/repro.exe -- serve -a tracking --shards 2 --clients 2 \
	  --ops 16 --keys 16 --migrate 0 --migrate-after 3 --broken-handoff \
	  --explore --dispatch-budget 200 -j 2 \
	  --repro _build/golden/serve-broken-handoff.repro > /dev/null 2>&1
	dune exec bin/repro.exe -- explain _build/golden/serve-broken-handoff.repro \
	  > _build/golden/serve-broken-handoff.txt
	dune exec bin/repro.exe -- stats -a tracking -t 4 --ops 40 --crashes 2 \
	  --keys 64 --seed 1 --json _build/golden/stats.json > /dev/null
	dune exec bin/repro.exe -- space --check --json _build/golden/space.json \
	  --csv _build/golden/space.csv > /dev/null
	dune exec bin/repro.exe -- causal --quick --json _build/golden/causal.json \
	  --csv _build/golden/causal.csv > /dev/null
	dune exec bin/repro.exe -- serve --shards 4 --clients 4 --ops 100 \
	  --crash-shard 2 --json _build/golden/serve.json \
	  --csv _build/golden/serve.csv > /dev/null
	dune exec bin/repro.exe -- trace -a tracking -t 3 --ops 12 --crashes 2 \
	  --keys 32 --seed 7 --perfetto _build/golden/perfetto.json > /dev/null
	for f in $(GOLDEN_FILES); do \
	  cmp test/expected/golden/$$f _build/golden/$$f || exit 1; \
	done
	echo "golden-smoke: $(words $(GOLDEN_FILES)) outputs byte-identical"

clean:
	dune clean

figures:
	dune exec bin/repro.exe -- figures --quick
