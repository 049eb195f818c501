package main

import (
	"strings"
	"testing"
)

// TestParseKeepsReportMetricColumns feeds parse a bench log whose lines
// carry b.ReportMetric columns around the standard ones and checks that the
// standard figures land in their fields and every custom column in Metrics.
func TestParseKeepsReportMetricColumns(t *testing.T) {
	log := strings.Join([]string{
		"goos: linux",
		"pkg: overcast",
		"BenchmarkDaemonChurn-2   \t       1\t 410413564 ns/op\t      1234 ops/s\t304809848 B/op\t 1111226 allocs/op",
		"BenchmarkFaultChurn/damped-2 \t 1\t4966246049 ns/op\t 3.000 coldsolves\t 12.00 events\t 9.000 suppressed\t488290664 B/op\t 6145626 allocs/op",
		"BenchmarkWaxman100-2 \t 100\t 20000 ns/op",
		"PASS",
	}, "\n")
	doc, err := parse(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %+v", len(doc.Benchmarks), doc.Benchmarks)
	}
	daemon := doc.Benchmarks["BenchmarkDaemonChurn"]
	if daemon.NsPerOp != 410413564 || daemon.BytesPerOp != 304809848 || daemon.AllocsPerOp != 1111226 {
		t.Fatalf("standard columns misparsed: %+v", daemon)
	}
	if len(daemon.Metrics) != 1 || daemon.Metrics["ops/s"] != 1234 {
		t.Fatalf("daemon metrics = %v, want ops/s=1234", daemon.Metrics)
	}
	fault := doc.Benchmarks["BenchmarkFaultChurn/damped"]
	want := map[string]float64{"coldsolves": 3, "events": 12, "suppressed": 9}
	if len(fault.Metrics) != len(want) {
		t.Fatalf("fault metrics = %v, want %v", fault.Metrics, want)
	}
	for unit, v := range want {
		if fault.Metrics[unit] != v {
			t.Fatalf("fault metric %s = %v, want %v", unit, fault.Metrics[unit], v)
		}
	}
	if fault.AllocsPerOp != 6145626 {
		t.Fatalf("allocs after custom columns misparsed: %+v", fault)
	}
	if plain := doc.Benchmarks["BenchmarkWaxman100"]; plain.Metrics != nil || plain.NsPerOp != 20000 {
		t.Fatalf("plain line: %+v", plain)
	}
}
