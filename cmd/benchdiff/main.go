// Command benchdiff checks regenerated benchmark records against their
// baselines. It pairs every BENCH_*.json in BASEDIR and NEWDIR by file
// name and checks each pair with metrics.CheckRecord under the gates the
// baseline's metrics carry (README.md, "Testing & CI", describes the
// record format). It prints every metric with its gates, then every
// failure, and exits 1 if there is any, or 2 on unreadable input.
//
// Usage:
//
//	benchdiff BASEDIR NEWDIR
package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"gator/internal/metrics"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: benchdiff BASEDIR NEWDIR")
		return 2
	}
	pairs := map[string][2]*metrics.Record{} // by file name: baseline, regenerated
	for i, dir := range args {
		// Glob fails only on a malformed pattern, which matches nothing and
		// is reported as such.
		paths, _ := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
		if len(paths) == 0 {
			fmt.Fprintf(stderr, "benchdiff: %s: no BENCH_*.json records\n", dir)
			return 2
		}
		for _, p := range paths {
			rec, err := metrics.ReadRecord(p)
			if err != nil {
				fmt.Fprintln(stderr, "benchdiff:", err)
				return 2
			}
			pair := pairs[filepath.Base(p)]
			pair[i] = rec
			pairs[filepath.Base(p)] = pair
		}
	}
	var names, failures []string
	for name := range pairs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		report, fails := metrics.CheckRecord(pairs[name][0], pairs[name][1])
		for _, line := range report {
			fmt.Fprintln(stdout, line)
		}
		failures = append(failures, fails...)
	}
	for _, f := range failures {
		fmt.Fprintln(stderr, "benchdiff: REGRESSION:", f)
	}
	if len(failures) > 0 {
		return 1
	}
	fmt.Fprintln(stdout, "benchdiff: ok")
	return 0
}
