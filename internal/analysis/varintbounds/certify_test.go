package varintbounds

import (
	"testing"

	"cfpgrowth/internal/analysis"
	"cfpgrowth/internal/analysis/interval"
)

// probe reports every certified site as a diagnostic so the fixture's
// want comments pin down exactly what the prover certifies.
var probe = &analysis.Analyzer{
	Name:      "boundsprobe",
	Doc:       "test probe: reports each index/slice site varintbounds certifies",
	Requires:  []*analysis.Analyzer{interval.Facts},
	FactTypes: []analysis.Fact{new(interval.ResultRanges)},
	Run: func(pass *analysis.Pass) error {
		look := interval.PassLookuper(pass)
		for _, fd := range pass.FuncDecls() {
			for pos := range certifiedSites(pass, fd, look) {
				pass.Reportf(pos, "certified")
			}
		}
		return nil
	},
}

func TestCertifiedSites(t *testing.T) {
	analysis.RunFixture(t, probe, "testdata/certified")
}
