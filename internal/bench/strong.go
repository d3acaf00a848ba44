package bench

import (
	"fmt"
	"strings"

	"heterohpc/internal/core"
)

// StrongSeries is one platform's strong-scaling curve on a fixed global
// mesh: the time-to-completion view of the paper's introduction, provided
// as an extension beyond the paper's weak-scaling evaluation.
type StrongSeries struct {
	App      string
	Platform string
	GlobalN  int
	Points   []Point
}

// RunStrong executes a strong-scaling experiment: the globalN³ problem on
// 1, 8, 27, … ranks (up to Options.MaxRanks) of one platform.
func RunStrong(app, platformName string, globalN int, o Options) (*StrongSeries, error) {
	o = o.withDefaults()
	tg, err := core.NewTarget(platformName, o.Seed)
	if err != nil {
		return nil, err
	}
	w, err := workloadFor(app)
	if err != nil {
		return nil, err
	}
	s := &StrongSeries{App: app, Platform: platformName, GlobalN: globalN}
	for _, ranks := range WeakSeries {
		if ranks > o.MaxRanks {
			break
		}
		a, err := w.strong(ranks, globalN, o.Steps)
		if err != nil {
			// Mesh cannot be split that finely; the series ends here.
			break
		}
		rep, runErr := tg.Run(core.JobSpec{Ranks: ranks, App: a, SkipSteps: o.SkipSteps, Obs: o.Obs})
		s.Points = append(s.Points, Point{Ranks: ranks, Report: rep, Err: runErr})
		if runErr != nil {
			break
		}
	}
	if len(s.Points) == 0 {
		return nil, fmt.Errorf("bench: no feasible strong-scaling points for %s on %s",
			app, platformName)
	}
	return s, nil
}

// FormatStrong renders a strong-scaling table with speedup and parallel
// efficiency relative to the smallest run.
func FormatStrong(series []*StrongSeries) string {
	var b strings.Builder
	if len(series) == 0 {
		return "(no data)\n"
	}
	fmt.Fprintf(&b, "Strong scaling, %s application, fixed %d³ global mesh\n",
		strings.ToUpper(series[0].App), series[0].GlobalN)
	fmt.Fprintf(&b, "%-10s %6s %12s %10s %12s %10s\n",
		"platform", "#mpi", "iter[s]", "speedup", "efficiency", "$/iter")
	for _, s := range series {
		var base float64
		var baseRanks int
		for _, pt := range s.Points {
			if pt.Err != nil {
				fmt.Fprintf(&b, "%-10s %6d  -- %v\n", s.Platform, pt.Ranks, pt.Err)
				continue
			}
			t := pt.Report.Iter.MaxTotal
			if base == 0 {
				base, baseRanks = t, pt.Ranks
			}
			speedup := base / t
			eff := speedup * float64(baseRanks) / float64(pt.Ranks)
			fmt.Fprintf(&b, "%-10s %6d %12.4f %10.2f %11.1f%% %10.5f\n",
				s.Platform, pt.Ranks, t, speedup, eff*100, pt.Report.CostPerIter)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}
