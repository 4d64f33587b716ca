package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// bound is one end-to-end metric's regression bound from BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readBounds reads the end-to-end regression bounds from a BENCHMARK.json.
func readBounds(path string) (map[string]bound, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(spec.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: no end_to_end metrics", path)
	}
	out := map[string]bound{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m
	}
	return out, nil
}

// loadResults reads result files; a directory contributes every .json
// file in it.
func loadResults(path string) ([]result, error) {
	files := []string{path}
	if st, err := os.Stat(path); err == nil && st.IsDir() {
		files, err = filepath.Glob(filepath.Join(path, "*.json"))
		if err != nil {
			return nil, err
		}
	}
	var out []result
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no result files", path)
	}
	return out, nil
}

// compareMain compares two sets of results (files or directories of
// result files) metric by metric, workload by workload, as medians. It
// refuses results measured on different hosts unless -force is given, and
// exits 1 when a metric got worse than its BENCHMARK.json bound.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	force := fs.Bool("force", false, "compare results from different hosts anyway")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: charosbench compare [-force] OLD NEW")
		return 2
	}
	bs, err := readBounds("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "compare: regression bounds: %v (run from the repository root)\n", err)
		return 2
	}
	old, err := loadResults(fs.Arg(0))
	if err == nil {
		var cur []result
		cur, err = loadResults(fs.Arg(1))
		if err == nil {
			return compareResults(old, cur, bs, *force, stdout, stderr)
		}
	}
	fmt.Fprintf(stderr, "compare: %v\n", err)
	return 2
}

func compareResults(old, cur []result, bs map[string]bound, force bool, stdout, stderr io.Writer) int {
	ref := old[0].Host
	for _, r := range append(append([]result(nil), old...), cur...) {
		if !r.Host.sameMachine(ref) {
			msg := fmt.Sprintf("results come from different hosts: %+v vs %+v", ref, r.Host)
			if !force {
				fmt.Fprintf(stderr, "compare: refusing: %s (use -force to compare anyway)\n", msg)
				return 2
			}
			fmt.Fprintf(stderr, "compare: warning: %s\n", msg)
			break
		}
	}
	type key struct{ workload, metric string }
	collect := func(rs []result) map[key][]float64 {
		m := map[key][]float64{}
		for _, r := range rs {
			for n, v := range r.Metrics {
				m[key{r.Workload, n}] = append(m[key{r.Workload, n}], v)
			}
		}
		return m
	}
	a, b := collect(old), collect(cur)
	var keys []key
	for k := range a {
		if _, ok := b[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	worse := 0
	fmt.Fprintf(stdout, "%-14s %-28s %14s %14s %9s  %s\n", "workload", "metric", "old median", "new median", "delta", "verdict")
	for _, k := range keys {
		mo, mn := median(a[k]), median(b[k])
		delta := ratio(mn-mo, mo)
		verdict := ""
		if bd, ok := bs[k.metric]; ok {
			change := delta
			if bd.Better == "higher" {
				change = -delta
			}
			verdict = "ok"
			if change > bd.Bound {
				verdict = fmt.Sprintf("WORSE (bound %.0f%%)", 100*bd.Bound)
				worse++
			}
		}
		fmt.Fprintf(stdout, "%-14s %-28s %14.6g %14.6g %+8.1f%%  %s\n", k.workload, k.metric, mo, mn, 100*delta, verdict)
	}
	if worse > 0 {
		fmt.Fprintf(stdout, "%d metric(s) worse than their bound\n", worse)
		return 1
	}
	return 0
}

// pinMain prints the report digests of the given seeds as digests.json
// content: one untimed repetition per workload and seed.
func pinMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pin", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seeds := fs.String("seeds", "1-10", "seed range lo-hi")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	loS, hiS, _ := strings.Cut(*seeds, "-")
	lo, err1 := strconv.ParseInt(loS, 10, 64)
	hi, err2 := strconv.ParseInt(hiS, 10, 64)
	if err1 != nil || err2 != nil || hi < lo {
		fmt.Fprintf(stderr, "pin: bad seed range %q\n", *seeds)
		return 2
	}
	out, err := pinnedDigests()
	if err != nil {
		out = map[string]map[string]string{}
	}
	ctx := context.Background()
	for _, w := range workloads {
		if out[w.name] == nil {
			out[w.name] = map[string]string{}
		}
		for s := lo; s <= hi; s++ {
			d, err := digestFor(ctx, w, s)
			if err != nil {
				fmt.Fprintf(stderr, "pin: %s seed %d: %v\n", w.name, s, err)
				return 1
			}
			out[w.name][strconv.FormatInt(s, 10)] = d
			fmt.Fprintf(stderr, "%s seed %d: %s\n", w.name, s, d)
		}
	}
	b, _ := json.MarshalIndent(out, "", "  ") // maps of strings always marshal
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}

// digestFor computes the digest a run of the workload at seed checks
// against: the rendered report of one repetition (service: the hot
// configs' reports, from direct runs).
func digestFor(ctx context.Context, w workloadDef, seed int64) (string, error) {
	if w.svc != nil {
		m := newMix(w.svc, seed)
		want, err := w.svc.expectedReports(ctx, nil, m.hot)
		if err != nil {
			return "", err
		}
		return hotDigest(m, want), nil
	}
	o := newOutcome()
	r := w.batch.rep(ctx, seed, nil, o)
	if !r.ok {
		return "", fmt.Errorf("repetition failed: %v", o.errs)
	}
	return r.digest, nil
}
