package summary_test

import (
	"fmt"
	"go/types"
	"strings"
	"testing"

	"cfpgrowth/internal/analysis"
	"cfpgrowth/internal/analysis/pointsto"
	"cfpgrowth/internal/analysis/summary"
)

// probe reports every declared function's computed Effects as a
// diagnostic, so the fixture's want comments check the summary
// computation end to end (facts included). Parameter writes are
// pointsto's; the probe prints its write mask as writes(mask).
var probe = &analysis.Analyzer{
	Name:      "summaryprobe",
	Doc:       "test probe: reports each function's Effects summary and pointsto write mask",
	Requires:  []*analysis.Analyzer{summary.Analyzer, pointsto.Analyzer},
	FactTypes: []analysis.Fact{new(summary.Effects), new(pointsto.Escapes)},
	Run: func(pass *analysis.Pass) error {
		lookup := summary.Lookuper(pass)
		for _, fd := range pass.FuncDecls() {
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			eff := lookup(fn)
			if eff == nil {
				continue
			}
			var parts []string
			if s := eff.String(); s != "none" {
				parts = append(parts, s)
			}
			if w := pointsto.ParamWrites(pass, fn); w != 0 {
				parts = append(parts, fmt.Sprintf("writes(%#x)", w))
			}
			if len(parts) == 0 {
				parts = []string{"none"}
			}
			pass.Reportf(fd.Name.Pos(), "effects: %s", strings.Join(parts, " "))
		}
		return nil
	},
}

func TestEffects(t *testing.T) {
	analysis.RunFixture(t, probe, "testdata/effects")
}
