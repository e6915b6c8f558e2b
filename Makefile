GO ?= go

.PHONY: build test race bench-smoke vet lint lint-suppressions fmt-check loc fuzz fuzz-smoke

build:
	$(GO) build ./...

# bench/ is a module of its own (the benchmark contract requires it), so
# ./... does not reach it: vet and test name it explicitly.
vet:
	$(GO) vet ./...
	$(GO) vet -C bench ./...

# The go command is stonnelint's package loader: the suite runs as a
# `go vet -vettool` unit checker, so it sees exactly the packages, test
# variants and build constraints vet and the compiler see. Both recipes
# below build the one git-ignored binary (a no-op when it is current).
STONNELINT = $(CURDIR)/bin/stonnelint

# lint runs go vet, then the repo's own analyzer suite (cmd/stonnelint)
# over both modules, test files included. Suppressions use
# `//lint:ignore <analyzer> <reason>`; a directive without a reason is
# itself a finding, so the suite stays honest.
lint: vet
	$(GO) build -o $(STONNELINT) ./cmd/stonnelint
	$(GO) vet -vettool=$(STONNELINT) ./...
	$(GO) vet -C bench -vettool=$(STONNELINT) ./...

# lint-suppressions fails when the set of //lint:ignore directives in the
# tree drifts from the committed SUPPRESSIONS.txt allowlist: adding an
# exemption means committing its justification in the same change.
# Regenerate with: bin/stonnelint -suppressions > SUPPRESSIONS.txt
lint-suppressions:
	@$(GO) build -o $(STONNELINT) ./cmd/stonnelint
	@if ! $(STONNELINT) -suppressions | diff -u SUPPRESSIONS.txt -; then \
		echo "suppression set drifted from SUPPRESSIONS.txt (regenerate and commit it)"; exit 1; fi

# fmt-check fails if any file needs gofmt (prints the offenders).
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# loc prints the size figure the simplicity PRs report in CHANGES.md:
# lines of non-test Go outside bench/ and the lint fixtures.
loc:
	@git ls-files '*.go' ':!bench' ':!*_test.go' ':!*/testdata/*' | xargs wc -l | tail -1

test:
	$(GO) test ./...
	$(GO) test -C bench ./...

# race runs the whole module under the race detector — not just the
# overtly parallel packages: the serving layer, simpool fan-out and chip
# scheduler reach into every core package, so a data race can surface
# anywhere. The explicit timeout keeps slow CI runners from hitting go
# test's default 10m panic mid-suite under the detector's ~10x slowdown
# (the exp figure suite dominates the wall time).
race:
	$(GO) test -race -timeout 45m ./...

# bench-smoke is the CI guard for bench/: every workload once at smoke size,
# both passes, output checked and discarded — it keeps the benchmark
# runnable without recording CI-runner noise as a measurement.
bench-smoke:
	$(GO) run -C bench . -smoke -runs 1 -seconds 0.2 > /dev/null

# Go's native fuzzer accepts one -fuzz pattern in one package per
# invocation, so each package:target pair gets its own run. FUZZTIME scales
# both flavours: fuzz-smoke is the CI budget, fuzz a longer local soak.
FUZZ_TARGETS = ./stonne:FuzzGEMMDispatch ./stonne:FuzzConvTile ./internal/check:FuzzSparseRoundTrip ./internal/dnn:FuzzPruneMatchesSort ./internal/serve:FuzzResolve ./internal/dnn:FuzzParseModel ./internal/serve:FuzzParseEntry

fuzz-smoke: FUZZTIME ?= 30s
fuzz-smoke:
	@for pt in $(FUZZ_TARGETS); do \
		pkg=$${pt%%:*}; t=$${pt##*:}; \
		echo "== $$pkg $$t ($(FUZZTIME)) =="; \
		$(GO) test $$pkg -run='^$$' -fuzz="^$$t$$" -fuzztime=$(FUZZTIME) || exit 1; \
	done

fuzz: FUZZTIME ?= 3m
fuzz: fuzz-smoke
