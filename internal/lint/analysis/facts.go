package analysis

import (
	"fmt"
	"go/types"
	"reflect"
)

// A Fact is a piece of analyzer-computed knowledge attached to a
// types.Object (typically a function or a package-level variable) in one
// package and consumed when a downstream package is analyzed. Facts are how
// the simlint suite becomes interprocedural across package boundaries: the
// loader type-checks packages in dependency order, the runner keeps one
// FactStore for the whole run, and an analyzer looking at a call into an
// already-analyzed package asks the store instead of re-deriving the callee's
// behavior from export data (which carries types, not bodies).
//
// Mirrors the shape of golang.org/x/tools/go/analysis facts: a marker
// method, export keyed by object, import by (object, fact type).
type Fact interface {
	AFact()
}

// ObjectKey returns a stable, package-qualified key for obj that is
// identical whether obj was type-checked from source or reconstructed from
// export data. Methods include their receiver: "(*repro/internal/sim.Engine).schedule";
// package-level funcs and vars are "pkgpath.Name".
func ObjectKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		// FullName qualifies methods with their receiver type and package.
		return fn.FullName()
	}
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

type factKey struct {
	obj string
	typ reflect.Type
}

// A FactStore holds facts for one analysis run, across all packages. The
// runner creates one store and installs it on every Pass; facts exported
// while analyzing package P are visible to every package analyzed after P
// (the loader returns packages in dependency order, so "after" includes all
// of P's importers).
//
// The store is not safe for concurrent use: the runner analyzes packages
// sequentially, which is also what makes fact visibility deterministic.
type FactStore struct {
	m map[factKey]Fact
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{m: make(map[factKey]Fact)}
}

func (s *FactStore) put(obj types.Object, f Fact) {
	s.m[factKey{ObjectKey(obj), reflect.TypeOf(f)}] = f
}

func (s *FactStore) get(obj types.Object, ptr Fact) bool {
	f, ok := s.m[factKey{ObjectKey(obj), reflect.TypeOf(ptr)}]
	if !ok {
		return false
	}
	reflect.ValueOf(ptr).Elem().Set(reflect.ValueOf(f).Elem())
	return true
}

// ExportObjectFact associates fact with obj for downstream packages. fact
// must be a pointer; the pointed-to value is copied on import, so the
// analyzer may reuse the pointer. Exporting without a store installed (an
// analyzer under a driver that does not support facts) is a silent no-op,
// matching the x/tools contract that facts are an optimization of
// precision, not a hard dependency.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if p.Facts == nil || obj == nil {
		return
	}
	if reflect.TypeOf(fact).Kind() != reflect.Ptr {
		panic(fmt.Sprintf("analysis: ExportObjectFact: fact %T is not a pointer", fact))
	}
	p.Facts.put(obj, fact)
}

// ImportObjectFact copies the fact of ptr's type previously exported for obj
// into *ptr, reporting whether one was found.
func (p *Pass) ImportObjectFact(obj types.Object, ptr Fact) bool {
	if p.Facts == nil || obj == nil {
		return false
	}
	if reflect.TypeOf(ptr).Kind() != reflect.Ptr {
		panic(fmt.Sprintf("analysis: ImportObjectFact: fact %T is not a pointer", ptr))
	}
	return p.Facts.get(obj, ptr)
}
