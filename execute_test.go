package cacqr

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// TestFactorizePlanRejectsInfeasibleRows hands FactorizePlan infeasible
// rows of every variant, plus an unknown one. Each must fail in the
// up-front row check — a cacqr: error, never one from inside the ranks
// (dist:, core:, tsqr:, pgeqrf:) and never a panic.
func TestFactorizePlanRejectsInfeasibleRows(t *testing.T) {
	tall, wide := RandomMatrix(64, 16, 1), RandomMatrix(8, 16, 2)
	cases := []struct {
		name string
		a    *Dense
		p    Plan
	}{
		{"seq wide", wide, Plan{Variant: VariantSequential}},
		{"1d zero procs", tall, Plan{Variant: Variant1DCQR2}},
		{"1d P∤m", tall, Plan{Variant: Variant1DCQR2, Procs: 5}},
		{"1d wide", wide, Plan{Variant: Variant1DCQR2, Procs: 2}},
		{"shifted P∤m", tall, Plan{Variant: VariantShiftedCQR3, Procs: 3}},
		{"grid c∤d", tall, Plan{Variant: VariantCACQR2, C: 2, D: 3}},
		{"grid zero", tall, Plan{Variant: VariantCACQR2}},
		{"grid d∤m", tall, Plan{Variant: VariantCACQR2, C: 1, D: 128}},
		{"grid c∤n", RandomMatrix(64, 18, 3), Plan{Variant: VariantCACQR2, C: 4, D: 4}},
		{"panel c∤b", tall, Plan{Variant: VariantPanelCACQR2, C: 2, D: 4, PanelWidth: 3}},
		{"panel b∤n", tall, Plan{Variant: VariantPanelCACQR2, C: 2, D: 4, PanelWidth: 6}},
		{"panel unset", tall, Plan{Variant: VariantPanelCACQR2, C: 2, D: 4}},
		{"tsqr P not 2^k", RandomMatrix(96, 4, 4), Plan{Variant: VariantTSQR, Procs: 3}},
		{"tsqr m/P < n", tall, Plan{Variant: VariantTSQR, Procs: 8}},
		{"tsqr b∤n", tall, Plan{Variant: VariantTSQR, Procs: 4, PanelWidth: 5}},
		{"tsqr m/P < b", tall, Plan{Variant: VariantTSQR, Procs: 16, PanelWidth: 8}},
		{"pgeqrf zero grid", tall, Plan{Variant: VariantPGEQRF}},
		{"pgeqrf pr∤m", tall, Plan{Variant: VariantPGEQRF, C: 1, D: 3, PanelWidth: 4}},
		{"pgeqrf nb∤n", tall, Plan{Variant: VariantPGEQRF, C: 1, D: 4, PanelWidth: 5}},
		{"pgeqrf wide", wide, Plan{Variant: VariantPGEQRF, C: 1, D: 4, PanelWidth: 4}},
		{"stream rows < n", tall, Plan{Variant: VariantStreamTSQR, PanelWidth: 8}},
		{"stream negative rows", tall, Plan{Variant: VariantStreamTSQR, PanelWidth: -1}},
		{"unknown", tall, Plan{Variant: Variant("nonsense"), Procs: 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%+v panicked: %v", c.p, r)
				}
			}()
			// A run that got as far as starting ranks would hit the 1ns
			// watchdog or a rank-level check, not the row check.
			_, err := FactorizePlan(c.a, c.p, Options{Timeout: time.Nanosecond})
			if err == nil || !strings.HasPrefix(err.Error(), "cacqr: ") {
				t.Fatalf("%+v on %dx%d: err = %v, want a cacqr: row-check error", c.p, c.a.Rows, c.a.Cols, err)
			}
		})
	}
}

// TestNonFiniteInputIsTypedError pins the no-NaN-success contract: a
// single NaN or +Inf entry is refused up front with ErrNonFinite, and an
// entry of 1e300 — finite, but its square overflows the Gram matrix and
// a reflector norm — ends in ErrNonFinite (a non-finite R) or the
// ErrIllConditioned Gram breakdown, on every entry point that plans or
// executes. None of them may return factors.
func TestNonFiniteInputIsTypedError(t *testing.T) {
	srv, err := NewServer(ServerOptions{BatchWindow: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	entryPoints := map[string]func(a *Dense) (any, error){
		"AutoFactorize": func(a *Dense) (any, error) { return AutoFactorize(a, 8, Options{}) },
		"FactorizeOnGrid": func(a *Dense) (any, error) {
			return FactorizeOnGrid(a, GridSpec{C: 2, D: 4}, Options{})
		},
		"Submit":        func(a *Dense) (any, error) { return srv.Submit(SubmitRequest{A: a}) },
		"Submit hinted": func(a *Dense) (any, error) { return srv.Submit(SubmitRequest{A: a, CondEst: 10}) },
		"SubmitBatch": func(a *Dense) (any, error) {
			it := srv.SubmitBatch([]SubmitRequest{{A: a, CondEst: 10}})
			return it[0].Result, it[0].Err
		},
	}
	for _, in := range []struct {
		v        float64
		overflow bool // finite, so the Gram breakdown is a typed answer too
	}{{math.NaN(), false}, {math.Inf(1), false}, {1e300, true}} {
		v := in.v
		for name, run := range entryPoints {
			t.Run(fmt.Sprintf("%s/%g", name, v), func(t *testing.T) {
				a := RandomMatrix(256, 16, 3)
				a.Set(7, 5, v)
				res, err := run(a)
				typed := errors.Is(err, ErrNonFinite)
				if in.overflow {
					typed = typed || errors.Is(err, ErrIllConditioned)
				}
				if !typed {
					t.Fatalf("A(7,5)=%g: err = %v (result %v), want a typed error", v, err, res)
				}
			})
		}
	}
}
