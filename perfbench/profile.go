package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// The profile cross-check attributes a runtime/pprof CPU profile by the
// innermost-frame rule: each sample goes to the innermost rtsj/internal/<pkg>
// frame of its stack. Samples with no such frame go to "runtime" when every
// frame is in the Go runtime (GC workers, the scheduler), to "bench" when
// this package is on the stack, and to "other" otherwise. The stacks come
// from the Go toolchain's `go tool pprof -traces`, which the benchmark's
// build already requires.

// attributeProfile returns each bucket's share of the CPU time in the
// profile file at path.
func attributeProfile(path string) (map[string]float64, error) {
	var out, errb bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(errb.String()))
	}
	return attributeTraces(out.String())
}

// attributeTraces applies the innermost-frame rule to the text stacks of
// `go tool pprof -traces`: each stack follows a separator line and starts
// with its sample value, leaf frame first.
func attributeTraces(text string) (map[string]float64, error) {
	by := map[string]float64{}
	var all float64
	var stack []string
	var value time.Duration
	flush := func() {
		if len(stack) > 0 {
			by[bucket(stack)] += float64(value)
			all += float64(value)
		}
		stack = stack[:0]
	}
	inStack := false
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inStack = true
			continue
		}
		fields := strings.Fields(line)
		if !inStack || len(fields) == 0 {
			continue
		}
		if len(stack) == 0 {
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("profile: sample value %q: %w", fields[0], err)
			}
			value, fields = d, fields[1:]
		}
		if len(fields) > 0 {
			stack = append(stack, fields[0])
		}
	}
	flush()
	if all == 0 {
		return nil, fmt.Errorf("profile: no samples")
	}
	for k := range by {
		by[k] /= all
	}
	return by, nil
}

// bucket applies the innermost-frame rule to one stack, leaf first.
func bucket(stack []string) string {
	onlyRuntime, bench := true, false
	for _, name := range stack {
		if rest, ok := strings.CutPrefix(name, "rtsj/internal/"); ok {
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				rest = rest[:i]
			}
			return rest
		}
		if strings.HasPrefix(name, "main.") {
			bench = true
		}
		if !strings.HasPrefix(name, "runtime.") && !strings.HasPrefix(name, "runtime/") {
			onlyRuntime = false
		}
	}
	switch {
	case bench:
		return "bench"
	case onlyRuntime:
		return "runtime"
	}
	return "other"
}
