// Fixture for varintbounds' certification: the test probe reports
// every certified index/slice site, so `want` marks the sites the prover must certify
// and absence of a want marks the ones it must not.
package fixture

const debugChecks = false

func assertf(cond bool, msg string) {
	if debugChecks && !cond {
		panic(msg)
	}
}

func guarded(b []byte, i int) byte {
	if i >= 0 && i < len(b) {
		return b[i] // want `certified`
	}
	return 0
}

func unguarded(b []byte, i int) byte {
	return b[i] // no proof: not certified
}

func halfGuarded(b []byte, i int) byte {
	if i < len(b) {
		return b[i] // i may be negative: not certified
	}
	return 0
}

func loopIndex(b []byte) int {
	s := 0
	for i := 0; i < len(b); i++ {
		s += int(b[i]) // want `certified`
	}
	return s
}

func rangeIndex(b []byte) int {
	s := 0
	for i := range b {
		s += int(b[i]) // want `certified`
	}
	return s
}

func staleVersion(b []byte, i int, c []byte) byte {
	if i >= 0 && i < len(b) {
		b = c
		return b[i] // guard was against the old b: not certified
	}
	return 0
}

func asserted(b []byte, i int) byte {
	if debugChecks {
		assertf(i >= 0 && i < len(b), "index out of range")
	}
	return b[i] // want `certified`
}

func arrayExact(a [16]byte, i int) byte {
	if i >= 0 && i < 16 {
		return a[i] // want `certified`
	}
	return 0
}

func arrayUnproven(a [16]byte, i int) byte {
	if i >= 0 && i < 32 {
		return a[i] // may still exceed 15: not certified
	}
	return 0
}

func sliceTail(b []byte, pos int) []byte {
	if pos >= 0 && pos <= len(b) {
		return b[pos:] // want `certified`
	}
	return nil
}

func sliceHead(b []byte, n int) []byte {
	if n >= 0 && n <= len(b) {
		return b[:n] // want `certified`
	}
	return nil
}

func sliceWindow(b []byte, n int) []byte {
	if n >= 4 && n <= len(b) {
		return b[2:n] // want `certified`
	}
	return nil
}

func sliceCrossing(b []byte, i, j int) []byte {
	if i >= 0 && i <= len(b) && j >= 0 && j <= len(b) {
		return b[i:j] // i may exceed j: not certified
	}
	return nil
}

func stringIndex(s string, i int) byte {
	if i >= 0 && i < len(s) {
		return s[i] // want `certified`
	}
	return 0
}

func decrementCarries(b []byte, i int) byte {
	if i >= 1 && i <= len(b) {
		return b[i-1] // want `certified`
	}
	return 0
}
