package protocol

import (
	"errors"
	"testing"
)

func TestDefaultParamsMatchTable1(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	if p.HighWatermark != 90 || p.LowWatermark != 80 {
		t.Errorf("watermarks = %v/%v, want 90/80 (Table 1 low-load)", p.HighWatermark, p.LowWatermark)
	}
	if p.DeletionThreshold != 0.03 {
		t.Errorf("u = %v, want 0.03 req/s", p.DeletionThreshold)
	}
	if p.ReplicationThreshold != 0.18 {
		t.Errorf("m = %v, want 6u = 0.18 req/s", p.ReplicationThreshold)
	}
	if migrRatio != 0.6 {
		t.Errorf("MIGR_RATIO = %v, want 0.6", migrRatio)
	}
	if replRatio != 1.0/6.0 {
		t.Errorf("REPL_RATIO = %v, want 1/6", replRatio)
	}
	if p.DistConstant != 2 {
		t.Errorf("distribution constant = %v, want 2", p.DistConstant)
	}
}

func TestHighLoadParamsMatchFigure9(t *testing.T) {
	p := HighLoadParams()
	if err := p.Validate(); err != nil {
		t.Fatalf("high-load params invalid: %v", err)
	}
	if p.HighWatermark != 50 || p.LowWatermark != 40 {
		t.Errorf("watermarks = %v/%v, want 50/40 (Figure 9)", p.HighWatermark, p.LowWatermark)
	}
}

func TestParamsValidate(t *testing.T) {
	base := DefaultParams()
	tests := []struct {
		name    string
		mutate  func(*Params)
		wantErr error
	}{
		{"lw >= hw", func(p *Params) { p.LowWatermark = p.HighWatermark }, ErrWatermarks},
		{"lw zero", func(p *Params) { p.LowWatermark = 0 }, ErrWatermarks},
		{"m = 4u violates theorem 5", func(p *Params) { p.ReplicationThreshold = 4 * p.DeletionThreshold }, ErrThresholds},
		{"u zero", func(p *Params) { p.DeletionThreshold = 0 }, ErrThresholds},
		{"dist constant 1", func(p *Params) { p.DistConstant = 1 }, ErrDistConstant},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			p := base
			tc.mutate(&p)
			if err := p.Validate(); !errors.Is(err, tc.wantErr) {
				t.Fatalf("Validate() = %v, want %v", err, tc.wantErr)
			}
		})
	}

	// MIGR_RATIO and REPL_RATIO are constants, not Params fields, so
	// Fig. 3's constraints are asserted on them directly: MIGR_RATIO
	// above 0.5 keeps two candidates from drawing an object back and
	// forth, and 0 < REPL_RATIO < MIGR_RATIO lets replication happen at
	// all (§4.2).
	ratios := []struct {
		name string
		ok   bool
	}{
		{"migr ratio at 0.5 allows ping-pong", migrRatio > 0.5},
		{"migr ratio above 1", migrRatio <= 1},
		{"repl ratio >= migr ratio", replRatio < migrRatio},
		{"repl ratio zero", replRatio > 0},
	}
	for _, tc := range ratios {
		t.Run(tc.name, func(t *testing.T) {
			if !tc.ok {
				t.Fatalf("MIGR_RATIO = %v, REPL_RATIO = %v break 0 < REPL_RATIO < MIGR_RATIO, 0.5 < MIGR_RATIO <= 1",
					migrRatio, replRatio)
			}
		})
	}
}

func TestStabilityConstraintIsTheorem5(t *testing.T) {
	// The m/4 floor of Theorem 5 must exceed the deletion threshold for
	// the paper's arguments to hold; Validate must enforce it strictly.
	p := DefaultParams()
	if MinUnitAccessAfterReplication(p.ReplicationThreshold) <= p.DeletionThreshold {
		t.Fatalf("m/4 = %v must exceed u = %v",
			MinUnitAccessAfterReplication(p.ReplicationThreshold), p.DeletionThreshold)
	}
}
