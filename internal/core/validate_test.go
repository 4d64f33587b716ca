package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/sample"
)

// TestValidate: every config that cannot run, or cannot give an error
// bar, is rejected with an error naming its field; the zero config and a
// schedule that measures at least two intervals pass.
func TestValidate(t *testing.T) {
	sched := func(spec string) sample.Schedule {
		s, err := sample.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	badMachine := arch.Default()
	badMachine.TLBEntries = 0
	for _, tc := range []struct {
		name  string
		cfg   Config
		field string // "" = valid
	}{
		{"zero config", Config{}, ""},
		{"sampled, 27 intervals", Config{Sample: sched("30K:60K:430K")}, ""},
		{"sampled, exactly 2 intervals", Config{Window: 520_000, Sample: sched("30K:60K:430K")}, ""},
		{"bad machine", Config{Machine: badMachine}, "machine"},
		{"ncpu below 1", Config{NCPU: -3}, "ncpu"},
		{"negative window", Config{Window: -5}, "window"},
		{"negative warmup", Config{Warmup: -1}, "warmup"},
		{"no interval in the window", Config{Window: 50_000, Sample: sched("30K:60K:430K")}, "sample"},
		{"one interval in the window", Config{Window: 100_000, Sample: sched("30K:60K:430K")}, "sample"},
		{"degenerate schedule", Config{Sample: sample.Schedule{Length: 0, Period: 10}}, "sample"},
		{"sampled + buffered", Config{Buffered: true, Sample: sched("30K:60K:430K")}, "sample"},
		{"sampled + notrace", Config{NoTrace: true, Sample: sched("30K:60K:430K")}, "sample"},
		{"sampled + iresim", Config{CollectIResim: true, Sample: sched("30K:60K:430K")}, "sample"},
		{"sampled + dresim", Config{CollectDResim: true, Sample: sched("30K:60K:430K")}, "sample"},
	} {
		err := tc.cfg.Validate()
		switch {
		case tc.field == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.field != "" && err == nil:
			t.Errorf("%s: accepted", tc.name)
		case tc.field != "" && !strings.HasPrefix(err.Error(), tc.field):
			t.Errorf("%s: error %q does not lead with the field %q", tc.name, err, tc.field)
		}
	}
}

// TestRunRejectsConflictingSampleModes: a sampled config whose other
// modes cannot run with sampling comes back from RunContext as an error,
// not a panic, before any simulation starts.
func TestRunRejectsConflictingSampleModes(t *testing.T) {
	sched, err := sample.Parse("30K:60K:430K")
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{Buffered: true, Sample: sched},
		{NoTrace: true, Sample: sched},
		{CollectDResim: true, Sample: sched},
	} {
		if ch, err := RunContext(context.Background(), cfg); ch != nil || err == nil {
			t.Errorf("%+v: RunContext returned (%v, %v), want an error", cfg, ch, err)
		}
	}
}
