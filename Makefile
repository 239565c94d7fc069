# Development entry points (mirrors .github/workflows/ci.yml).

CARGO ?= cargo

.PHONY: build test bench bench-paper bench-kernel bench-kernel-diff bench-e2e lint profile fmt clippy clean

build:
	$(CARGO) build --release

test:
	$(CARGO) test -q

bench:
	$(CARGO) bench -p slic-bench

# The paper's figures, tables and ablations as Markdown; rewrites BENCH_paper.json at the
# repo root (CI requires the committed file to match and gates its claims).
bench-paper:
	$(CARGO) bench -p slic-bench --bench paper

# Transient-kernel throughput bench; rewrites BENCH_transient.json at the repo root.
bench-kernel:
	$(CARGO) bench -p slic-bench --bench transient_kernel

# Reduced-mode bench into target/, then a per-variant ratio table against the
# committed BENCH_transient.json (fails if any variant drops below half baseline).
bench-kernel-diff:
	BENCH_SMOKE=1 BENCH_OUT=$(CURDIR)/target/bench_fresh.json \
		$(CARGO) bench -p slic-bench --bench transient_kernel
	$(CARGO) run --release -p slic-cli -- bench diff target/bench_fresh.json BENCH_transient.json

# The end-to-end benchmark: BENCHMARK.json's command once per workload (default seed,
# 20 s each), the result lines gathered into BENCH_e2e.json at the repo root.  Fails if
# any run exits nonzero or reports a failed or incorrect campaign.
PERFBENCH = $(CARGO) run --offline --release --quiet --manifest-path perfbench/Cargo.toml --
BENCH_E2E_WORKLOADS = nominal mc-cold mc-warm mc-farm

bench-e2e:
	@set -e; mkdir -p target/bench-e2e; sep=''; \
	printf '{"schema":"slic-bench/e2e/v1","seconds":20,"workloads":{' > target/bench-e2e/all.json; \
	for w in $(BENCH_E2E_WORKLOADS); do \
		echo "bench-e2e: $$w"; \
		$(PERFBENCH) --workload $$w --seconds 20 --trace 0 > target/bench-e2e/$$w.out; \
		result=$$(tail -n 1 target/bench-e2e/$$w.out); \
		case "$$result" in \
			'{"correct": true, "attempted": '*', "failed": 0, '*) ;; \
			*) echo "bench-e2e: $$w failed: $$result" >&2; exit 1 ;; \
		esac; \
		printf '%s\n"%s":%s' "$$sep" "$$w" "$$result" >> target/bench-e2e/all.json; \
		sep=','; \
	done; \
	printf '\n}}\n' >> target/bench-e2e/all.json; \
	mv target/bench-e2e/all.json BENCH_e2e.json; \
	echo "bench-e2e: wrote BENCH_e2e.json"

fmt:
	$(CARGO) fmt --all -- --check

clippy:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

# The workspace lint policy ([workspace.lints] in Cargo.toml, clippy.toml) runs inside
# clippy.
lint: fmt clippy

# Record a traced farmed quick run (tracing never changes artifact bytes) and render
# its span-tree report: phase breakdown, hottest units, worker utilization, cache
# effectiveness.  Sidecar + artifact land in target/profile/.
profile: build
	mkdir -p target/profile
	target/release/slic characterize --spawn-workers 2 \
		--trace target/profile/run.trace.jsonl --out target/profile/run.json
	target/release/slic profile target/profile/run.trace.jsonl

clean:
	$(CARGO) clean
