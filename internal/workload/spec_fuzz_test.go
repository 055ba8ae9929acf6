package workload

import (
	"math"
	"reflect"
	"testing"
)

// FuzzWorkloadSpec throws arbitrary strings at the -traffic grammar. Every
// spec ParseSpec accepts must validate, carry a finite in-range rate and a
// bounded flow count, and survive a String/ParseSpec round trip unchanged.
func FuzzWorkloadSpec(f *testing.F) {
	for _, s := range []string{
		"",
		"proc=poisson,rate=0.2,flows=64,seed=7",
		"proc=poisson,rate=1.5,flows=10,fanout=3,discovery=1",
		"proc=bursty,burst=8,every=20,flows=40,seed=12",
		"rate=0.5,proc=bursty,burst=2,every=5,flows=4",
		"proc=poisson,rate=0.3,flows=16,burst=3,fanout=0",
		"nope", "proc=martian", "rate=x", "flows=0",
		"rate=NaN,flows=4", "rate=Inf,flows=4", "rate=-Inf,flows=4",
		"proc=bursty,burst=2,every=5,rate=NaN",
		"proc=poisson,rate=1e308,flows=1000000000",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ParseSpec(in)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("ParseSpec(%q) returned a spec Validate rejects: %v", in, err)
		}
		if math.IsNaN(s.Rate) || math.IsInf(s.Rate, 0) || s.Rate < 0 || (s.Process == Poisson && s.Rate == 0) {
			t.Fatalf("ParseSpec(%q): rate %g out of range", in, s.Rate)
		}
		if s.Flows < 1 || s.Flows > MaxFlows {
			t.Fatalf("ParseSpec(%q): flows %d out of range", in, s.Flows)
		}
		again, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q) → %q does not re-parse: %v", in, s.String(), err)
		}
		if !reflect.DeepEqual(again, s) {
			t.Fatalf("ParseSpec(%q) → %q → %+v, want %+v", in, s.String(), again, s)
		}
	})
}
