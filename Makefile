GO ?= go

.PHONY: check build test race bench fmt vet

check: ## gofmt + vet + build + race-enabled tests (the CI gate)
	./scripts/check.sh

build:
	$(GO) build ./...
	cd perfbench && $(GO) build -o /dev/null .

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem .

fmt:
	gofmt -w cmd internal examples scripts perfbench bench_test.go fleet_bench_test.go

vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...
