// Command vettool bundles the x/tools analyzers the CI analyzers job
// runs on top of the standard vet suite:
//
//   - nilness: proves nil-pointer dereferences and degenerate nil
//     comparisons along feasible paths — the engine's Machine/Report
//     plumbing passes interface values (where a typed nil is the
//     classic trap) and vet alone is blind;
//   - unusedwrite: flags stores to struct fields and arrays that are
//     never read — dead writes into pooled exploration nodes and
//     scratch buffers would silently undo the copy-on-write sharing
//     discipline.
//
// Built and invoked by CI as:
//
//	cd tools/vettool && go mod tidy && go build -o vettool .
//	go vet -vettool=tools/vettool/vettool ./...
//
// It lives in its own module so the root module carries no dependency
// on golang.org/x/tools; `go build ./...` at the root never needs the
// network.
package main

import (
	"golang.org/x/tools/go/analysis/passes/nilness"
	"golang.org/x/tools/go/analysis/passes/unusedwrite"
	"golang.org/x/tools/go/analysis/unitchecker"
)

func main() {
	unitchecker.Main(nilness.Analyzer, unusedwrite.Analyzer)
}
