// Package scope defines which packages each simlint analyzer applies to.
// The analyzers themselves are scope-agnostic (so analysistest can exercise
// them on arbitrary testdata packages); cmd/simlint consults this package
// when deciding what to run where.
package scope

import (
	"slices"
	"strings"
)

// ModulePath is the import-path prefix of this repository's module.
const ModulePath = "repro"

// SimDomain lists the packages (module-relative) that form the
// deterministic simulation domain: everything that executes under the
// single-threaded engine and contributes to simulated results. The
// determinism contract — virtual time only, seeded sim.RNG only, no
// goroutines or channels, no map-iteration-order dependence — is enforced
// here and only here; support packages (trace, metrics, stats, logp, core,
// pci) synchronize or sort internally and are exempt.
//
// The packages in ConcurrencyExempt are deliberately NOT in this list; the
// packages above them (bench, core) stay in scope: they may *submit* work to
// the pool but still must not spawn goroutines or consult wall clocks
// themselves. See docs/performance.md.
var SimDomain = []string{
	"internal/sim",
	"internal/fabric",
	"internal/ib",
	"internal/iwarp",
	"internal/mx",
	"internal/mpi",
	"internal/mem",
	"internal/verbs",
	"internal/udapl",
	"internal/tcpsim",
	"internal/sockets",
	"internal/congestion",
	"internal/cluster",
	"internal/bench",
}

// ConcurrencyExempt records, explicitly, the packages allowed to use
// ordinary concurrent Go (goroutines, channels, wall clocks) even though
// they sit next to the simulation domain. They are outside SimDomain, so
// none of the determinism analyzers run on them; this list exists so the
// exemption is a reviewed decision with a written safety argument rather
// than an accident of omission.
//
//   - internal/parallel is the experiment runner's bounded worker pool, the
//     one sanctioned place where goroutines run simulation worlds
//     concurrently. Its safety argument is structural — each pooled task
//     owns a complete world (engine, RNG, metrics) and results land in
//     pre-indexed slots — rather than per-line, so it carries a scope-level
//     exemption here instead of //simlint:allow directives.
//   - internal/simd is the job server for simulation-as-a-service: an HTTP
//     listener, a queue, and an on-disk result cache are wall-clock,
//     goroutine-ridden territory by nature. It touches simulation state
//     only by running whole specs through internal/core and internal/bench,
//     exactly like cmd/figures, and its cache is sound precisely because
//     those layers stay deterministic.
//   - internal/simd/spec is pure spec parsing and hashing; it is listed
//     with its parent so the exemption boundary is the whole subtree.
//   - internal/pdes is the conservative parallel runtime that drives the
//     shard engines of ONE world on worker goroutines. Its safety argument
//     is the barrier protocol, not thread-freedom: engines only run between
//     barriers, each on exactly one goroutine per epoch with a channel
//     rendezvous on both sides (so every cross-epoch access is ordered by
//     happens-before), and cross-shard events are merged in the
//     deterministic (time, source shard, sequence) key order rather than
//     arrival order. The sharded fabric path it serves stays inside
//     SimDomain (internal/fabric) and is linted normally.
//
// cmd/simd is NOT exempt: like every cmd/ package it is linted for
// nogoroutine and maporder, which is what keeps the binary a thin flag
// wrapper around internal/simd.
var ConcurrencyExempt = []string{
	"internal/parallel",
	"internal/pdes",
	"internal/simd",
	"internal/simd/spec",
}

// IsConcurrencyExempt reports whether the package carries the scope-level
// concurrency exemption recorded in ConcurrencyExempt.
func IsConcurrencyExempt(importPath string) bool {
	p, ok := rel(importPath)
	if !ok {
		return false
	}
	for _, d := range ConcurrencyExempt {
		if p == d {
			return true
		}
	}
	return false
}

// ModelPackages lists the packages (module-relative) that model simulated
// hardware or protocols: everything whose state belongs to exactly one
// simulated world. The shard-safety contract — no package-level mutable
// state that could alias across shards of a future parallel-DES engine —
// is enforced here by the sharedstate analyzer, and the seeded-randomness
// contract (seedrand) shares the same scope. The list is SimDomain minus
// the experiment-driver layers (cluster, bench) plus the device and fault
// models that sit beside the engine (pci, faults).
var ModelPackages = []string{
	"internal/sim",
	"internal/fabric",
	"internal/iwarp",
	"internal/ib",
	"internal/mx",
	"internal/tcpsim",
	"internal/mem",
	"internal/mpi",
	"internal/sockets",
	"internal/verbs",
	"internal/udapl",
	"internal/pci",
	"internal/faults",
	"internal/congestion",
}

// ProgramStarters lists the packages (module-relative, each with its
// subtree) that may start simulation processes: the benchmark drivers,
// the examples and the commands. A process is a program one of them
// starts; model and protocol code runs as event handlers (procstart).
var ProgramStarters = []string{
	"internal/bench",
	"internal/logp",
	"examples",
	"cmd",
}

// ProgramStarterFuncs lists the other functions that may start a process,
// as "<module-relative package>.<Recv>.<Name>": cluster's Testbed.Go, the
// shard-aware start the drivers call.
var ProgramStarterFuncs = []string{
	"internal/cluster.Testbed.Go",
}

// MayStartPrograms reports whether function fn ("Recv.Name" for a method,
// "Name" for a function, "" outside any function) of the package may
// start a process.
func MayStartPrograms(importPath, fn string) bool {
	p, ok := rel(importPath)
	if !ok {
		return false
	}
	for _, d := range ProgramStarters {
		if p == d || strings.HasPrefix(p, d+"/") {
			return true
		}
	}
	return fn != "" && slices.Contains(ProgramStarterFuncs, p+"."+fn)
}

// CheckNames are the analyzer names a //simlint:allow directive may cite.
// The directive validator itself is deliberately absent: a malformed-
// directive diagnostic cannot be silenced by another directive.
var CheckNames = []string{
	"detclock", "maporder", "nogoroutine", "timeunits", "tracekeys",
	"sharedstate", "noalloc", "seedrand", "procstart",
}

// DirectiveVerbs are the words that may follow "//simlint:". Anything else
// is a typo the directive validator flags.
var DirectiveVerbs = []string{"allow", "noalloc"}

// KnownCheck reports whether name is a valid //simlint:allow check name.
func KnownCheck(name string) bool {
	for _, n := range CheckNames {
		if n == name {
			return true
		}
	}
	return false
}

// rel strips the module prefix from an import path; ok is false for
// packages outside the module.
func rel(importPath string) (string, bool) {
	if importPath == ModulePath {
		return "", true
	}
	return strings.CutPrefix(importPath, ModulePath+"/")
}

// InSimDomain reports whether the package must obey the full determinism
// contract (detclock, maporder, nogoroutine, timeunits).
func InSimDomain(importPath string) bool {
	p, ok := rel(importPath)
	if !ok {
		return false
	}
	for _, d := range SimDomain {
		if p == d {
			return true
		}
	}
	return false
}

// WantsTraceKeys reports whether tracekeys applies: every module package
// except internal/trace and internal/metrics themselves, whose internal
// plumbing necessarily forwards names through variables.
func WantsTraceKeys(importPath string) bool {
	p, ok := rel(importPath)
	if !ok {
		return false
	}
	return p != "internal/trace" && p != "internal/metrics"
}

// WantsDirectiveCheck reports whether the directive validator applies
// (every package in the module).
func WantsDirectiveCheck(importPath string) bool {
	_, ok := rel(importPath)
	return ok
}

// IsModelPackage reports whether the package carries the shard-safety and
// seeded-randomness contracts. Packages outside the module (analysistest
// testdata) count as model packages so the analyzers can be exercised on
// arbitrary fixtures.
func IsModelPackage(importPath string) bool {
	p, ok := rel(importPath)
	if !ok {
		return true
	}
	for _, d := range ModelPackages {
		if p == d {
			return true
		}
	}
	return false
}

// InCmdDomain reports whether the package is one of the command-line tools.
// The tools are linted for output determinism (maporder — figure tables and
// trace dumps must not depend on map order), for ad-hoc concurrency
// (nogoroutine — all parallelism belongs to internal/parallel), for
// unit-checked durations, and for the module-wide checks (tracekeys,
// directives, sharedstate writes, noalloc, seedrand). detclock does NOT
// apply: wall-clock reads are the tools' legitimate business (progress ETAs,
// benchmark timings) and never feed simulated results.
func InCmdDomain(importPath string) bool {
	p, ok := rel(importPath)
	if !ok {
		return false
	}
	return strings.HasPrefix(p, "cmd/")
}

// WantsModuleWide reports whether the module-wide analyzers (sharedstate's
// cross-package write check, noalloc, seedrand, procstart) apply. That is
// every module package: noalloc is directive-driven so it is inert where
// nothing is annotated, writes to model-package globals are a bug wherever
// they appear — experiment drivers and cmd tools included — and procstart
// exempts the drivers itself (MayStartPrograms).
func WantsModuleWide(importPath string) bool {
	_, ok := rel(importPath)
	return ok
}
