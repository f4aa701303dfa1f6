// Facts: the cross-package memory of the analysis framework.
//
// A Fact is a conclusion an analyzer attaches to a types.Object ("this
// function performs a mine.Control stop-check on every path", "this
// function may write through its first parameter") so that a later
// pass — often over a different package — can consume it. The x/tools
// framework serializes facts between separate driver processes; here
// the driver type-checks every package through one Loader, so object
// identities are shared across packages of a single load and the store
// can simply be an in-memory map keyed by (object, fact type).
//
// Unlike x/tools there is no ownership rule that a fact may only be
// exported for objects of the current package, but every producer in
// the suite annotates only its own package's functions: knowledge
// about an imported API that no analyzed package can derive (say,
// that encoding.Uvarint's results are untrusted) belongs in the
// consumer, recognised by callee object, so subset runs like
// `cfplint ./internal/core/` stay sound without loading the whole
// module. Each fact type has one producer; a separate producer
// analyzer is worth its phase only when several analyzers consume
// its facts.
package analysis

import (
	"fmt"
	"go/types"
	"reflect"
)

// A Fact is an analyzer-defined conclusion about a types.Object. The
// concrete type must be a pointer to a struct and is part of the key:
// two analyzers can attach distinct fact types to one object without
// collision. AFact is a marker method.
type Fact interface{ AFact() }

type factKey struct {
	obj types.Object
	typ reflect.Type
}

// A FactStore holds every fact exported during one multi-package run.
// The driver creates one store and threads it through all packages in
// dependency order; fixture tests get a fresh implicit store per run.
type FactStore struct {
	m map[factKey]Fact
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{m: make(map[factKey]Fact)}
}

func (s *FactStore) set(obj types.Object, f Fact) {
	s.m[factKey{obj, reflect.TypeOf(f)}] = f
}

func (s *FactStore) get(obj types.Object, f Fact) bool {
	got, ok := s.m[factKey{obj, reflect.TypeOf(f)}]
	if !ok {
		return false
	}
	reflect.ValueOf(f).Elem().Set(reflect.ValueOf(got).Elem())
	return true
}

// validFact checks the concrete representation constraint once per
// export/import; a non-pointer fact would silently break the reflect
// copy in get, so fail loudly instead.
func validFact(a *Analyzer, f Fact) error {
	t := reflect.TypeOf(f)
	if t == nil || t.Kind() != reflect.Pointer {
		return fmt.Errorf("analysis: %s: fact %T must be a pointer to a struct", a.Name, f)
	}
	for _, ft := range a.FactTypes {
		if reflect.TypeOf(ft) == t {
			return nil
		}
	}
	return fmt.Errorf("analysis: %s: fact type %T not declared in FactTypes", a.Name, f)
}

// ExportObjectFact records a fact about obj for later passes
// (including passes over other packages of the same run). The fact
// type must be declared in the analyzer's FactTypes.
func (p *Pass) ExportObjectFact(obj types.Object, f Fact) {
	if err := validFact(p.Analyzer, f); err != nil {
		panic(err)
	}
	if obj == nil {
		return
	}
	p.facts.set(obj, f)
}

// ImportObjectFact copies the fact of f's type previously exported for
// obj into *f and reports whether one existed. Facts exported by the
// analyzers named in Requires are visible; within one package an
// analyzer also sees its own exports.
func (p *Pass) ImportObjectFact(obj types.Object, f Fact) bool {
	if err := validFact(p.Analyzer, f); err != nil {
		panic(err)
	}
	if obj == nil {
		return false
	}
	return p.facts.get(obj, f)
}
