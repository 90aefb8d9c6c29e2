package experiments

import (
	"bytes"
	"errors"
	"hash/fnv"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
		"fig7", "fig8", "fig9", "fig10", "fig11",
		"exact-vs-approx", "threshold", "pricing", "inflation",
		"policy-sweep",
	}
	all := All()
	if len(all) != len(want) {
		ids := make([]string, len(all))
		for i, e := range all {
			ids[i] = e.ID
		}
		t.Fatalf("registry has %d experiments %v, want %d", len(all), ids, len(want))
	}
	for _, id := range want {
		e, err := ByID(id)
		if err != nil {
			t.Errorf("ByID(%q): %v", id, err)
			continue
		}
		if e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", id)
		}
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, err := ByID("fig99"); !errors.Is(err, ErrUnknown) {
		t.Errorf("error = %v, want ErrUnknown", err)
	}
}

func TestAllOrdering(t *testing.T) {
	all := All()
	// figs come first, numerically.
	if all[0].ID != "fig1" || all[1].ID != "fig2" {
		t.Errorf("ordering starts %s, %s; want fig1, fig2", all[0].ID, all[1].ID)
	}
	if all[9].ID != "fig10" || all[10].ID != "fig11" {
		t.Errorf("fig10/fig11 misordered: %s, %s", all[9].ID, all[10].ID)
	}
}

// quickOutputHash pins the FNV-64a hash of every experiment's Quick-preset
// output. A change to any figure's bytes fails here, so re-pinning a figure
// is always a deliberate edit of this table.
var quickOutputHash = map[string]uint64{
	"fig1":            0x95eed3f9ec44f35e,
	"fig2":            0xff1b66687a4c30c7,
	"fig3":            0x3c5893db5c9de909,
	"fig4":            0xfb5c3d9edebf787c,
	"fig5":            0x47fefbf0715ded9b,
	"fig6":            0x2e22071ef78e873b,
	"fig7":            0xd2daefe25281ff9e,
	"fig8":            0x84ebbf647e895fbf,
	"fig9":            0x55d961aefabfccf6,
	"fig10":           0x54c6e62161e9736a,
	"fig11":           0x9796db5f37c5df3c,
	"exact-vs-approx": 0x289b1c6e8eb94efe,
	"inflation":       0x8041da319f834e34,
	"policy-sweep":    0x32f4e32f7d136a65,
	"pricing":         0xf9014d58948f2716,
	"threshold":       0x5d07e753f978fabc,
}

// TestEveryExperimentRunsQuick executes the full registry at the Quick
// preset: every figure must regenerate without error, produce output, and
// hash to its pinned value.
func TestEveryExperimentRunsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick preset still simulates; skipped with -short")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(Quick, &buf); err != nil {
				t.Fatalf("run: %v", err)
			}
			if buf.Len() == 0 {
				t.Fatal("no output produced")
			}
			h := fnv.New64a()
			h.Write(buf.Bytes())
			want, ok := quickOutputHash[e.ID]
			if got := h.Sum64(); !ok || got != want {
				t.Errorf("output hash %#016x, pinned %#016x (pinned: %v)", got, want, ok)
			}
		})
	}
}

func TestFig1ShowsCondensationContrast(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed; skipped with -short")
	}
	e, err := ByID("fig1")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Run(Quick, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "healthy") || !strings.Contains(out, "condensed") {
		t.Errorf("fig1 output missing cases:\n%s", out)
	}
}

func TestThresholdTableContainsVerdicts(t *testing.T) {
	e, err := ByID("threshold")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Run(Quick, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "CONDENSES") || !strings.Contains(out, "safe") {
		t.Errorf("threshold output missing verdicts:\n%s", out)
	}
	if !strings.Contains(out, "inf") {
		t.Errorf("symmetric case should report infinite threshold:\n%s", out)
	}
}

// TestPolicySweepRuns smoke-tests the policy sweep through both entry
// points: the registered experiment (default rate grid) and the custom
// grid the -taxrates flag uses. The output must carry every variant row.
func TestPolicySweepRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := PolicySweep([]float64{0.2}, Quick, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"none", "tax=0.2000", "adaptive(g=0.3)", "demurrage=0.05"} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep output missing %q:\n%s", want, out)
		}
	}
	if err := PolicySweep(nil, Quick, &buf); err == nil {
		t.Error("empty rate grid accepted")
	}
}
