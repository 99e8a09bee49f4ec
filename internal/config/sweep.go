package config

// This file encodes the parameter sweep of Table 5.4: three retention times,
// two time-based policies, seven data-based policies, plus the full-SRAM
// baseline — 43 combinations per application.

// RetentionTimesUS returns the three retention times of Table 5.4 in
// microseconds.
func RetentionTimesUS() []float64 {
	return []float64{Retention50us, Retention100us, Retention200us}
}

// DataPolicies returns the seven data-based policies of Table 5.4 under the
// given time-based policy, in the order the paper's figures use:
// all, valid, dirty, WB(4,4), WB(8,8), WB(16,16), WB(32,32).
func DataPolicies(t TimePolicy) []Policy {
	return []Policy{
		{Time: t, Data: AllData},
		{Time: t, Data: ValidData},
		{Time: t, Data: DirtyData},
		WB(t, 4, 4),
		WB(t, 8, 8),
		WB(t, 16, 16),
		WB(t, 32, 32),
	}
}

// TimePolicies returns the two time-based policies of the sweep in figure
// order (Periodic first, then Refrint).
func TimePolicies() []TimePolicy {
	return []TimePolicy{PeriodicTime, RefrintTime}
}

// SweepPolicies returns the 14 policies of one retention-time group in the
// order the paper's figures plot them: P.all .. P.WB(32,32), then
// R.all .. R.WB(32,32).
func SweepPolicies() []Policy {
	var out []Policy
	for _, t := range TimePolicies() {
		out = append(out, DataPolicies(t)...)
	}
	return out
}
