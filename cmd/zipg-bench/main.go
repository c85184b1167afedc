// Command zipg-bench regenerates the paper's tables and figures. Each
// experiment builds the systems under test over generated datasets,
// prints the corresponding table and, under it, ✔ or ✘ for each of the
// paper's claims about it; EXPERIMENTS.md records how the shapes compare
// with the paper.
//
// Usage:
//
//	zipg-bench -experiment fig6 [-base 1048576] [-ops 4000] [-v]
//	zipg-bench -experiment all
//	zipg-bench -list
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"zipg/internal/bench"
)

func main() {
	experiment := flag.String("experiment", "", "experiment to run (see -list), or 'all'")
	base := flag.Int64("base", 256<<10, "base dataset size in bytes (the smallest dataset; others scale 12.5x and 32x)")
	ops := flag.Int("ops", 2000, "operations per throughput measurement")
	verbose := flag.Bool("v", false, "print progress")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	var names []string
	for _, f := range bench.Figures {
		names = append(names, f.Name)
	}
	if *list {
		fmt.Println("experiments:", strings.Join(names, " "))
		return
	}
	if *experiment == "" {
		fmt.Fprintln(os.Stderr, "usage: zipg-bench -experiment <id|all> [-base N] [-ops N] [-v]")
		fmt.Fprintln(os.Stderr, "experiments:", strings.Join(names, " "))
		os.Exit(2)
	}

	opts := bench.Options{BaseBytes: *base, Ops: *ops, Verbose: *verbose}
	figures := bench.Figures
	if *experiment != "all" {
		i := slices.Index(names, *experiment)
		if i < 0 {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; available: %s\n", *experiment, strings.Join(names, " "))
			os.Exit(2)
		}
		figures = figures[i : i+1]
	}
	for _, f := range figures {
		start := time.Now()
		r, err := f.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", f.Name, err)
			os.Exit(1)
		}
		fmt.Print(r.Format())
		fmt.Printf("(%s in %.1fs)\n\n", f.Name, time.Since(start).Seconds())
	}
}
