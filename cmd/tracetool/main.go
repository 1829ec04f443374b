// Command tracetool analyzes causally-annotated JSONL traces (written by
// `netbench -tracejsonl` or trace.WriteJSONLFile): it reconstructs the event
// DAG, extracts the critical path of an operation, and attributes the
// operation's elapsed virtual time to architectural buckets.
//
// Usage:
//
//	tracetool crit  [-op REF] trace.jsonl            print the critical path
//	tracetool blame [-op REF] trace.jsonl            print the time-attribution table
//	tracetool diff  [-op REF] [-op2 REF] a.jsonl b.jsonl
//	                                                 compare two attributions
//
// The operation defaults to the last-completing causal node of the trace —
// in a benchmark run, the final MPI call. Pass -op to blame a specific node
// (refs are the causal.self values in the JSONL events).
//
// tracetool refuses traces whose ring buffer dropped events carrying causal
// edges: the DAG would have holes and the attribution would silently lie.
// Re-run the benchmark with a larger -tracecap instead.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/causal"
	"repro/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "crit":
		err = runCrit(args)
	case "blame":
		err = runBlame(args)
	case "diff":
		err = runDiff(args)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracetool %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  tracetool crit  [-op REF] trace.jsonl
  tracetool blame [-op REF] trace.jsonl
  tracetool diff  [-op REF] [-op2 REF] a.jsonl b.jsonl`)
}

// load reads one JSONL trace and builds its DAG, resolving the op ref
// (0 = the trace's terminal causal node).
func load(path string, op int64) (*causal.DAG, trace.Ref, error) {
	log, drops, err := trace.ReadJSONLFile(path)
	if err != nil {
		return nil, trace.RefNone, err
	}
	d, err := causal.Build(log, drops)
	if err != nil {
		return nil, trace.RefNone, fmt.Errorf("%s: %w", path, err)
	}
	ref := trace.Ref(op)
	if ref == trace.RefNone {
		ref = d.Terminal()
		if ref == trace.RefNone {
			return nil, trace.RefNone, fmt.Errorf("%s: no causally-annotated events (was tracing enabled?)", path)
		}
	}
	return d, ref, nil
}

func runCrit(args []string) error {
	fs := flag.NewFlagSet("crit", flag.ExitOnError)
	op := fs.Int64("op", 0, "operation node ref (default: last-completing causal node)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("want exactly one trace file, got %d args", fs.NArg())
	}
	d, ref, err := load(fs.Arg(0), *op)
	if err != nil {
		return err
	}
	path, err := d.CriticalPath(ref)
	if err != nil {
		return err
	}
	fmt.Printf("critical path of node %d (%d nodes, %d in DAG):\n", ref, len(path), d.Len())
	fmt.Printf("%12s %12s %-7s %6s  %-24s %s\n", "start(us)", "dur(us)", "bucket", "ref", "track", "event")
	for _, n := range path {
		fmt.Printf("%12.3f %12.3f %-7s %6d  %-24s %s\n",
			us(n.Start()), us(n.End()-n.Start()), causal.Classify(n.Ev), n.Ref, n.Ev.Who, n.Ev.Name)
	}
	return nil
}

func runBlame(args []string) error {
	fs := flag.NewFlagSet("blame", flag.ExitOnError)
	op := fs.Int64("op", 0, "operation node ref (default: last-completing causal node)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("want exactly one trace file, got %d args", fs.NArg())
	}
	d, ref, err := load(fs.Arg(0), *op)
	if err != nil {
		return err
	}
	rep, err := d.Blame(ref)
	if err != nil {
		return err
	}
	printReport(fs.Arg(0), rep)
	return checkSum(rep)
}

// checkSum enforces the attribution invariant: the buckets tile the blame
// window exactly. Blame constructs reports that way; a mismatch means the
// report is corrupt and must not be trusted.
func checkSum(rep *causal.Report) error {
	var sum int64
	for _, v := range rep.Buckets {
		sum += v
	}
	if sum != rep.Total() {
		return fmt.Errorf("attribution buckets sum to %d ps but the blame window is %d ps", sum, rep.Total())
	}
	return nil
}

func printReport(path string, rep *causal.Report) {
	fmt.Printf("%s: %s/%s [%0.3f us .. %0.3f us], window %.3f us, path %d nodes\n",
		path, rep.Op.Ev.Who, rep.Op.Ev.Name, us(rep.Start), us(rep.End), us(rep.Total()), len(rep.Path))
	fmt.Printf("%-7s %12s %7s\n", "bucket", "time(us)", "share")
	for b := causal.Bucket(0); b < causal.NumBuckets; b++ {
		fmt.Printf("%-7s %12.3f %6.1f%%\n", b, us(rep.Buckets[b]), 100*float64(rep.Buckets[b])/float64(rep.Total()))
	}
}

func runDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	op := fs.Int64("op", 0, "operation node ref in the first trace")
	op2 := fs.Int64("op2", 0, "operation node ref in the second trace (default: same rule as -op)")
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("want exactly two trace files, got %d args", fs.NArg())
	}
	da, refA, err := load(fs.Arg(0), *op)
	if err != nil {
		return err
	}
	db, refB, err := load(fs.Arg(1), *op2)
	if err != nil {
		return err
	}
	ra, err := da.Blame(refA)
	if err != nil {
		return fmt.Errorf("%s: %w", fs.Arg(0), err)
	}
	rb, err := db.Blame(refB)
	if err != nil {
		return fmt.Errorf("%s: %w", fs.Arg(1), err)
	}
	printReport(fs.Arg(0), ra)
	if err := checkSum(ra); err != nil {
		return fmt.Errorf("%s: %w", fs.Arg(0), err)
	}
	fmt.Println()
	printReport(fs.Arg(1), rb)
	if err := checkSum(rb); err != nil {
		return fmt.Errorf("%s: %w", fs.Arg(1), err)
	}
	fmt.Println()
	fmt.Printf("delta (%s - %s), window %+.3f us:\n", fs.Arg(1), fs.Arg(0), us(rb.Total()-ra.Total()))
	fmt.Printf("%-7s %12s %12s %12s\n", "bucket", "a(us)", "b(us)", "delta(us)")
	for b := causal.Bucket(0); b < causal.NumBuckets; b++ {
		fmt.Printf("%-7s %12.3f %12.3f %+12.3f\n", b, us(ra.Buckets[b]), us(rb.Buckets[b]), us(rb.Buckets[b]-ra.Buckets[b]))
	}
	return nil
}

// us converts picoseconds to microseconds for display.
func us(ps int64) float64 { return float64(ps) / 1e6 }
