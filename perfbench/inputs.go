package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/apimodel"
	"repro/internal/apk"
	"repro/internal/corpus"
	"repro/internal/report"
)

const (
	// largeApps is the size of the large-apps draw; each drawn app gets
	// padMin + [0, padSpan) inert padding classes.
	largeApps = 64
	padMin    = 200
	padSpan   = 200
	// editShare is the share of CI rescan requests that carry a new
	// version of an app (a result-cache miss); the rest resend an
	// unchanged app.
	editShare = 0.2
)

// input is one app of a workload: its container file and the per-cause
// warning counts the oracle expects a scan of it to report.
type input struct {
	Name   string               `json:"name"`
	File   string               `json:"file"` // relative to the run directory
	Pad    int                  `json:"pad"`  // padding classes already added
	Expect map[report.Cause]int `json:"expect"`
}

// census describes a workload's input set.
type census struct {
	Workload       string `json:"workload"`
	Why            string `json:"why"`
	Apps           int    `json:"apps"`
	Classes        int    `json:"classes"`
	BodiedMethods  int    `json:"bodied_methods"`
	ContainerBytes int64  `json:"container_bytes"`
	// RescanEditShare is the share of new versions in the traced run's
	// CI rescans through serve.
	RescanEditShare float64 `json:"rescan_edit_share"`
}

// manifest is the run directory's description of the inputs, read by
// every child process.
type manifest struct {
	Seed   int64   `json:"seed"`
	Apps   []input `json:"apps"`
	Census census  `json:"census"`
}

// generate builds the workload's inputs from the seed, writes them as
// container files under dir, and records them in dir/manifest.json. It
// is the harness's own work and is never timed.
func generate(workload string, seed int64, dir string) (*manifest, error) {
	apps, err := corpus.GenerateCorpus(seed)
	if err != nil {
		return nil, err
	}
	pads := make([]int, len(apps))
	if workload == "large-apps" {
		// The padding counts are spread evenly over [padMin,
		// padMin+padSpan) and dealt to the drawn apps in seeded order, so
		// every seed pads by the same total.
		rng := rand.New(rand.NewSource(seed))
		drawn := rng.Perm(len(apps))[:largeApps]
		order := rng.Perm(largeApps)
		picked := make([]*corpus.CorpusApp, largeApps)
		pads = make([]int, largeApps)
		for j, i := range drawn {
			pads[j] = padMin + order[j]*padSpan/largeApps
			corpus.AddPadding(apps[i].App, pads[j])
			picked[j] = apps[i]
		}
		apps = picked
	}
	if err := os.MkdirAll(filepath.Join(dir, "apps"), 0o755); err != nil {
		return nil, err
	}
	reg := apimodel.NewRegistry()
	man := &manifest{Seed: seed, Census: census{
		Workload: workload, Why: workloadWhy[workload], RescanEditShare: editShare}}
	for i, ca := range apps {
		data, err := apk.Encode(ca.App)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ca.Name, err)
		}
		file := filepath.Join("apps", fmt.Sprintf("%03d.apk", i))
		if err := os.WriteFile(filepath.Join(dir, file), data, 0o644); err != nil {
			return nil, err
		}
		expect := map[report.Cause]int{}
		for c, n := range corpus.OracleApp(reg, ca.Spec).ToolByCause {
			if n > 0 {
				expect[c] = n
			}
		}
		man.Apps = append(man.Apps, input{Name: ca.Name, File: file, Pad: pads[i], Expect: expect})

		man.Census.Apps++
		man.Census.ContainerBytes += int64(len(data))
		for _, c := range ca.App.Program.Classes() {
			man.Census.Classes++
			for _, m := range c.Methods {
				if m.HasBody() {
					man.Census.BodiedMethods++
				}
			}
		}
	}
	data, err := json.Marshal(man)
	if err != nil {
		return nil, err
	}
	return man, os.WriteFile(filepath.Join(dir, "manifest.json"), data, 0o644)
}

// readManifest loads the inputs the orchestrator generated.
func readManifest(dir string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, err
	}
	var man manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("parsing the input manifest: %w", err)
	}
	return &man, nil
}

// readAll loads every input's container bytes.
func readAll(dir string, man *manifest) ([][]byte, error) {
	out := make([][]byte, len(man.Apps))
	for i, in := range man.Apps {
		data, err := os.ReadFile(filepath.Join(dir, in.File))
		if err != nil {
			return nil, err
		}
		out[i] = data
	}
	return out, nil
}
