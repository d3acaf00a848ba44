package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"heterohpc/internal/obs"
)

// Journal goldens: SHA-256 of the journal followed by the metrics of one
// observed run, captured before the shrink-continue loop was folded into
// the migrate loop. The fold must not move a byte of either artifact, so
// a mismatch here means the refactor changed observable behaviour — fix
// the code, do not rebaseline. No storm shrink leg is pinned: its revoked
// message count and agreement time vary between equal-seed runs (see
// perfbench/README.md).
const (
	goldenCompareRDJournalSHA = "173d363c5b192675a47cddb799da72749dddc75a6a7c7688941c0e0fd0d2a3df"
	goldenCompareNSJournalSHA = "494af8f5070b597140ce256651042161e3d0d1084643cf626a4e234cddc70ca7"
	goldenStormMigrateJournal = "45b1eb33d72f4c1a75e580d3407fcf17c80a35f3376b8b867843b53de19e080d"
)

// observedHash runs fn under a fresh obs.Run and hashes the journal bytes
// followed by the metrics bytes.
func observedHash(t *testing.T, fn func(run *obs.Run) error) string {
	t.Helper()
	run := obs.NewRun()
	if err := fn(run); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if err := run.WriteJournal(h); err != nil {
		t.Fatal(err)
	}
	if err := run.WriteMetrics(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestRecoveryJournalGoldens(t *testing.T) {
	compare := func(o FaultOptions) func(*obs.Run) error {
		return func(run *obs.Run) error {
			o.Obs = run
			_, err := CompareRecovery(o)
			return err
		}
	}
	rd := FaultOptions{
		App: "rd", Platform: "puma", Ranks: 8, RanksPerNode: 2,
		PerRankN: 3, Steps: 4, Seed: 77, Crashes: 1, Preemptions: 1,
	}
	ns := rd
	ns.App, ns.PerRankN, ns.Steps = "ns", 2, 3
	storm := FaultOptions{
		App: "rd", Platform: "ec2", Ranks: 8, RanksPerNode: 2,
		PerRankN: 3, Steps: 6, Seed: 12, Policy: PolicyMigrate,
		StormWave: 2, StormCascades: 1, OnDemandSupply: 1,
		ProvisionRetries: 2, Regrow: true,
	}
	cases := []struct {
		name string
		fn   func(*obs.Run) error
		want string
	}{
		{"compare-rd", compare(rd), goldenCompareRDJournalSHA},
		{"compare-ns", compare(ns), goldenCompareNSJournalSHA},
		{"storm-migrate", func(run *obs.Run) error {
			o := storm
			o.Obs = run
			_, err := RunSupervised(o)
			return err
		}, goldenStormMigrateJournal},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := observedHash(t, c.fn); got != c.want {
				t.Errorf("journal+metrics drifted from golden:\ngot  %s\nwant %s", got, c.want)
			}
		})
	}
}
