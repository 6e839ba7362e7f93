// Command appgen generates the evaluation corpus — 16 golden apps plus
// 269 synthetic Google-Play-style apps — as .apk container files on disk,
// ready to be scanned by cmd/nchecker.
//
// Usage:
//
//	appgen -out corpus/ [-seed 2016] [-n 285] [-pad 0]
//
// -pad N appends N inert padding classes to every app — classes provably
// outside the engine's demand-driven closure — for class-count-scaling
// runs such as the large-apps benchmark workload. Reports are identical
// at any padding level.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/apk"
	"repro/internal/corpus"
)

func main() {
	out := flag.String("out", "corpus", "output directory")
	seed := flag.Int64("seed", 2016, "corpus generation seed")
	n := flag.Int("n", corpus.CorpusSize, "number of apps to write (goldens first)")
	pad := flag.Int("pad", 0, "inert padding classes appended to every app (class-count scaling)")
	flag.Parse()

	apps, err := corpus.GenerateCorpus(*seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "appgen: %v\n", err)
		os.Exit(1)
	}
	if *n < len(apps) {
		apps = apps[:*n]
	}
	for _, a := range apps {
		corpus.AddPadding(a.App, *pad)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "appgen: %v\n", err)
		os.Exit(1)
	}
	var bytes int64
	for _, a := range apps {
		path := filepath.Join(*out, a.Name+".apk")
		if err := apk.WriteFile(path, a.App); err != nil {
			fmt.Fprintf(os.Stderr, "appgen: %s: %v\n", a.Name, err)
			os.Exit(1)
		}
		if fi, err := os.Stat(path); err == nil {
			bytes += fi.Size()
		}
	}
	fmt.Printf("appgen: wrote %d apps (%.1f KiB) to %s (seed %d)\n",
		len(apps), float64(bytes)/1024, *out, *seed)
}
