package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

type resultFile struct {
	Stamp    stamp             `json:"stamp"`
	Workload string            `json:"workload"`
	Trace    int               `json:"trace"`
	Metrics  map[string]metric `json:"metrics"`
}

// compareResults prints new/old for every shared metric of two result
// files, refusing files whose host stamps differ.
func compareResults(arg string) int {
	paths := strings.Split(arg, ",")
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "servebench: -compare takes old.json,new.json")
		return 2
	}
	var rs [2]resultFile
	for i, p := range paths {
		b, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(b, &rs[i])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "servebench:", err)
			return 2
		}
	}
	if a, b := rs[0].Stamp.hostKey(), rs[1].Stamp.hostKey(); a != b {
		fmt.Fprintf(os.Stderr, "servebench: refusing to compare results from different hosts or toolchains:\n  %s\n  %s\n", a, b)
		return 3
	}
	if rs[0].Workload != rs[1].Workload || rs[0].Trace != rs[1].Trace {
		fmt.Fprintln(os.Stderr, "servebench: refusing to compare different workloads or trace modes")
		return 3
	}
	var names []string
	for n := range rs[0].Metrics {
		if _, ok := rs[1].Metrics[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	fmt.Printf("%s: %s (%s) → %s (%s)\n", rs[0].Workload, rs[0].Stamp.Commit, rs[0].Stamp.SourceHash[:12], rs[1].Stamp.Commit, rs[1].Stamp.SourceHash[:12])
	for _, n := range names {
		o, v := rs[0].Metrics[n], rs[1].Metrics[n]
		fmt.Printf("  %-34s %14.4f → %14.4f %-6s new/old %.4f\n", n, o.Value, v.Value, o.Unit, v.Value/o.Value)
	}
	return 0
}
