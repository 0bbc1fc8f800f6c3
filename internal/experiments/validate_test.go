package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/hardware"
)

// smallValidationConfig keeps the grid unit-test sized: the SmallTest
// hierarchy shows capacity knees at kilobyte footprints.
func smallValidationConfig() ValidationConfig {
	return ValidationConfig{
		Hier:  hardware.SmallTest(),
		Sizes: []int64{4 << 10, 16 << 10},
		Quick: true,
	}
}

func TestRunValidationCoversAllOperators(t *testing.T) {
	v, err := RunValidation(context.Background(), smallValidationConfig())
	if err != nil {
		t.Fatalf("RunValidation: %v", err)
	}
	want := ValidationOperators()
	if len(v.Operators) != len(want) {
		t.Fatalf("got %d operators, want %d", len(v.Operators), len(want))
	}
	if len(want) < 6 {
		t.Fatalf("operator suite too small: %v", want)
	}
	for i, ov := range v.Operators {
		if ov.Operator != want[i] {
			t.Errorf("operator %d = %q, want %q", i, ov.Operator, want[i])
		}
		if len(ov.Points) != 2 {
			t.Errorf("%s: %d points, want 2", ov.Operator, len(ov.Points))
		}
		if ov.Pattern == "" {
			t.Errorf("%s: empty pattern", ov.Operator)
		}
		for _, pt := range ov.Points {
			if pt.MeasuredNS <= 0 {
				t.Errorf("%s at %d: non-positive measurement %g", ov.Operator, pt.Bytes, pt.MeasuredNS)
			}
			if pt.PredictedNS <= 0 {
				t.Errorf("%s at %d: non-positive prediction %g", ov.Operator, pt.Bytes, pt.PredictedNS)
			}
			if pt.RelError < 0 {
				t.Errorf("%s at %d: negative rel error", ov.Operator, pt.Bytes)
			}
		}
		if ov.MaxRelError < ov.MeanRelError {
			t.Errorf("%s: max %g < mean %g", ov.Operator, ov.MaxRelError, ov.MeanRelError)
		}
	}
	if v.MeanRelError <= 0 || v.MeanRelError > 2 {
		t.Errorf("overall mean relative error %g implausible", v.MeanRelError)
	}
	if v.Profile != "small-test" {
		t.Errorf("profile = %q", v.Profile)
	}
}

func TestRunValidationDeterministic(t *testing.T) {
	cfg := smallValidationConfig()
	cfg.Operators = []string{"scan", "hash-join"}
	a, err := RunValidation(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 1
	b, err := RunValidation(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Operators {
		for j := range a.Operators[i].Points {
			pa, pb := a.Operators[i].Points[j], b.Operators[i].Points[j]
			if pa != pb {
				t.Errorf("%s point %d differs across worker counts: %+v vs %+v",
					a.Operators[i].Operator, j, pa, pb)
			}
		}
	}
}

func TestRunValidationNormalizesSizeOrder(t *testing.T) {
	cfg := smallValidationConfig()
	cfg.Sizes = []int64{16 << 10, 4 << 10} // descending on purpose
	cfg.Operators = []string{"scan"}
	v, err := RunValidation(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if v.Sizes[0] != 4<<10 || v.Sizes[1] != 16<<10 {
		t.Fatalf("sizes not normalized ascending: %v", v.Sizes)
	}
	pts := v.Operators[0].Points
	if pts[0].Bytes != 4<<10 || pts[1].Bytes != 16<<10 {
		t.Fatalf("points not in ascending size order: %+v", pts)
	}
	// The caller's slice must not be reordered in place.
	if cfg.Sizes[0] != 16<<10 {
		t.Error("RunValidation mutated the caller's Sizes slice")
	}
}

func TestRunValidationSelectsOperators(t *testing.T) {
	cfg := smallValidationConfig()
	cfg.Operators = []string{"scan", "btree"}
	v, err := RunValidation(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Operators) != 2 || v.Operators[0].Operator != "scan" || v.Operators[1].Operator != "btree" {
		t.Fatalf("operator selection broken: %+v", v.Operators)
	}
}

func TestRunValidationRejectsBadInput(t *testing.T) {
	cfg := smallValidationConfig()
	cfg.Operators = []string{"no-such-op"}
	if _, err := RunValidation(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "unknown operator") {
		t.Errorf("unknown operator: err = %v", err)
	}
	cfg = smallValidationConfig()
	cfg.Sizes = []int64{128}
	if _, err := RunValidation(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "below minimum") {
		t.Errorf("tiny size: err = %v", err)
	}
	for _, backend := range Backends() {
		cfg = smallValidationConfig()
		cfg.Backend = backend
		cfg.Hier = &hardware.Hierarchy{Name: "no-levels"}
		if _, err := RunValidation(context.Background(), cfg); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%s backend, invalid hierarchy: err = %v, want ErrInvalidConfig", backend, err)
		}
	}
}

func TestRunValidationCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunValidation(ctx, smallValidationConfig()); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestValidationReportRenders(t *testing.T) {
	cfg := smallValidationConfig()
	cfg.Operators = []string{"scan"}
	v, err := RunValidation(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	v.Report().Render(&sb)
	out := sb.String()
	if !strings.Contains(out, "scan") || !strings.Contains(out, "mean relative error") {
		t.Errorf("report missing fields:\n%s", out)
	}
}
