// Package frozen exercises frozenro in both directions: writes that
// reach memory behind a //cfplint:freezes result are flagged (directly,
// through derived slices, via append/copy, and through a write-through
// callee), while the constructor's own builder writes and pure read
// paths certify clean.
package frozen

// Array stands in for the CFP-array serving artifact.
type Array struct {
	data   []uint32
	starts []int
	count  int
}

// Build is the freeze boundary: its result is immutable. Its own
// writes to the under-construction array are construction, not
// mutation, and must not be flagged.
//
//cfplint:freezes
func Build(n int) *Array {
	a := &Array{data: make([]uint32, n), starts: make([]int, n)}
	for i := 0; i < n; i++ {
		a.data[i] = uint32(i) // builder write: clean
	}
	a.count = n // builder write: clean
	return a
}

// reads only loads frozen memory: clean.
func reads() uint32 {
	a := Build(4)
	return a.data[0] + uint32(a.starts[1]) + uint32(a.count)
}

// mutate writes the artifact directly.
func mutate() {
	a := Build(4)
	a.count = 9   // want `write to frozen memory`
	a.data[0] = 1 // want `write to frozen memory`
}

// mutateAlias writes through an alias of a frozen slice.
func mutateAlias() {
	a := Build(4)
	d := a.data
	d[2] = 5 // want `write to frozen memory`
}

// appendFrozen rebinding a frozen field is a write to the artifact.
func appendFrozen() {
	a := Build(4)
	a.data = append(a.data, 7) // want `write to frozen memory` 11:`write to frozen memory`
}

// copyInto overwrites frozen elements through the copy builtin.
func copyInto(src []uint32) {
	a := Build(4)
	copy(a.data, src) // want `write to frozen memory`
}

// helper writes through its parameter; with a frozen argument bound in
// from mutateViaHelper, its store site is flagged too.
func helper(a *Array) {
	a.count = 1 // want `write to frozen memory`
}

// mutateViaHelper hands the frozen artifact to a write-through callee.
func mutateViaHelper() {
	a := Build(4)
	helper(a) // want `helper may write through its parameter 0`
}

// aliasHelper writes through a local alias of its parameter: the store
// site is flagged through the frozen argument bound in below, and the
// write mask makes the call site a write too.
func aliasHelper(a *Array) {
	d := a.data
	d[0] = 1 // want `write to frozen memory`
}

// mutateViaAliasHelper hands the artifact to a callee whose write hides
// behind a local alias.
func mutateViaAliasHelper() {
	a := Build(4)
	aliasHelper(a) // want `aliasHelper may write through its parameter 0`
}
