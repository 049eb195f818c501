package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"time"
)

// layers groups the packages whose CPU time the traced run attributes, in
// report order. A sample is charged to the innermost frame of its stack that
// belongs to one of these packages, so a standard-library helper (sort,
// reflect, strconv, map internals) counts toward the layer that called it.
// A sample with no such frame is "other".
var layers = []struct {
	name string
	pkgs []string
}{
	{"admin", []string{"overcast/internal/admin"}},
	{"wire", []string{"encoding/json", "net", "internal/poll", "syscall", "bufio"}},
	{"root", []string{"overcast"}},
	{"core", []string{"overcast/internal/core"}},
	{"overlay", []string{"overcast/internal/overlay"}},
	{"routing", []string{"overcast/internal/routing"}},
	{"graph", []string{"overcast/internal/graph"}},
	{"underlay", []string{"overcast/internal/underlay"}},
	{"shard", []string{"overcast/internal/shard"}},
	{"runtime", []string{"runtime"}},
	// The benchmark's own client code and, in a traced run, the profiler.
	{"bench", []string{"main", "runtime/pprof"}},
}

const otherLayer = "other"

var layerOfPkg = func() map[string]string {
	m := make(map[string]string)
	for _, l := range layers {
		for _, p := range l.pkgs {
			m[p] = l.name
		}
	}
	return m
}()

// entryPoints are the functions whose cumulative CPU time the traced run
// reports, keyed by metric name: a sample counts once if any frame of its
// stack is one of the functions, or a closure or goroutine wrapper declared
// in one. A stack ends at its goroutine, so work a function hands to the
// solver's worker pool counts only where the pool job is listed too.
var entryPoints = []struct {
	metric string
	fns    []string
}{
	{"admin.dispatch_ms_per_op", []string{"overcast/internal/admin.(*Server).dispatch"}},
	{"overlay.plane_stage_ms_per_alloc", []string{
		"overcast/internal/overlay.(*BatchRunner).stagePlane",
		"overcast/internal/overlay.(*BatchRunner).fillJob",
	}},
	{"overlay.fixed_oracle_ms_per_alloc", []string{"overcast/internal/overlay.(*FixedOracle).MinTreeWith"}},
	{"routing.dijkstra_ms_per_alloc", []string{"overcast/internal/routing.(*DijkstraScratch).ShortestPathsInto"}},
	{"routing.subtree_repair_ms_per_alloc", []string{"overcast/internal/routing.(*DijkstraScratch).RepairSubtreesInto"}},
}

// packageOf returns the package path of a symbolized function name such as
// "overcast/internal/routing.(*DijkstraScratch).ShortestPathsInto" or
// "slices.SortFunc[...]".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOf returns the layer a sample with the given stack (leaf first) is
// charged to.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if l, ok := layerOfPkg[packageOf(fn)]; ok {
			return l
		}
	}
	return otherLayer
}

func matchesEntry(frame string, fns []string) bool {
	for _, fn := range fns {
		if frame == fn || (strings.HasPrefix(frame, fn) && frame[len(fn)] == '.') {
			return true
		}
	}
	return false
}

// cpuProfile is a CPU profile reduced to what the report needs.
type cpuProfile struct {
	total time.Duration
	layer map[string]time.Duration // self time per layer, "other" included
	entry map[string]time.Duration // cumulative time per entry-point metric
}

// readProfile reduces a CPU profile with `go tool pprof -traces`.
func readProfile(path string) (*cpuProfile, error) {
	var out, errOut bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-symbolize=none", path)
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, strings.TrimSpace(errOut.String()))
	}
	return parseTraces(&out)
}

// parseTraces reads pprof's -traces text: a header, then one block per
// distinct stack, each opened by a dashed separator line, whose first line
// carries the sample value before the leaf frame.
func parseTraces(r io.Reader) (*cpuProfile, error) {
	p := &cpuProfile{layer: make(map[string]time.Duration), entry: make(map[string]time.Duration)}
	var value time.Duration
	var stack []string
	inBlock := false
	flush := func() {
		if len(stack) == 0 {
			return
		}
		p.total += value
		p.layer[layerOf(stack)] += value
		for _, e := range entryPoints {
			for _, fn := range stack {
				if matchesEntry(fn, e.fns) {
					p.entry[e.metric] += value
					break
				}
			}
		}
		stack = stack[:0]
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlock, value = true, 0
			continue
		}
		if !inBlock {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(stack) == 0 {
			if len(fields) < 2 {
				return nil, fmt.Errorf("pprof trace line %q has no frame", line)
			}
			v, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof trace value %q: %w", fields[0], err)
			}
			value, fields = v, fields[1:]
		}
		stack = append(stack, fields[0])
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	return p, nil
}
