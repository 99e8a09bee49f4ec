package config

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// TimePolicy is the time-based component of a refresh policy (Table 3.1):
// it decides WHEN lines are refreshed.
type TimePolicy uint8

// Time-based policies.
const (
	// PeriodicTime refreshes groups of lines on a fixed schedule staggered
	// across the retention period (the conventional eDRAM scheme).
	PeriodicTime TimePolicy = iota
	// RefrintTime refreshes a line when its sentry bit decays and raises an
	// interrupt (the paper's proposal).
	RefrintTime
	// NoRefresh is used for the SRAM baseline, which never refreshes.
	NoRefresh
)

// String implements fmt.Stringer using the paper's abbreviations
// (P for Periodic, R for Refrint).
func (t TimePolicy) String() string {
	switch t {
	case PeriodicTime:
		return "P"
	case RefrintTime:
		return "R"
	case NoRefresh:
		return "none"
	default:
		return fmt.Sprintf("TimePolicy(%d)", uint8(t))
	}
}

// DataPolicy is the data-based component of a refresh policy (Table 3.1):
// it decides WHAT is refreshed when the time policy fires.
type DataPolicy uint8

// Data-based policies.
const (
	// AllData refreshes every line, valid or not (reference policy).
	AllData DataPolicy = iota
	// ValidData refreshes only valid lines; invalid lines are left to decay.
	ValidData
	// DirtyData refreshes only dirty lines; clean lines are invalidated.
	DirtyData
	// WBData is WB(n,m): a dirty line is refreshed n times before being
	// written back (becoming valid clean); a valid clean line is refreshed m
	// times before being invalidated.  A normal access resets the count.
	WBData
)

// String implements fmt.Stringer.
func (d DataPolicy) String() string {
	switch d {
	case AllData:
		return "all"
	case ValidData:
		return "valid"
	case DirtyData:
		return "dirty"
	case WBData:
		return "WB"
	default:
		return fmt.Sprintf("DataPolicy(%d)", uint8(d))
	}
}

// Policy is a complete refresh policy: a time-based component, a data-based
// component, and the WB(n,m) budgets when the data policy is WBData.
type Policy struct {
	Time TimePolicy
	Data DataPolicy
	N    int // dirty-line refresh budget (WB only)
	M    int // clean-line refresh budget (WB only)
}

// Common policies, named as in the paper's figures.
var (
	// SRAMBaseline is the full-SRAM hierarchy (no refresh at all).
	SRAMBaseline = Policy{Time: NoRefresh, Data: AllData}
	// PeriodicAll is the naive eDRAM baseline ("P.all").
	PeriodicAll = Policy{Time: PeriodicTime, Data: AllData}
	// PeriodicValid is "P.valid".
	PeriodicValid = Policy{Time: PeriodicTime, Data: ValidData}
	// RefrintValid is "R.valid".
	RefrintValid = Policy{Time: RefrintTime, Data: ValidData}
	// RefrintDirty is "R.dirty".
	RefrintDirty = Policy{Time: RefrintTime, Data: DirtyData}
)

// WB returns the WB(n,m) data policy under the given time policy.
func WB(t TimePolicy, n, m int) Policy {
	return Policy{Time: t, Data: WBData, N: n, M: m}
}

// RefrintWB returns the paper's best-performing family, "R.WB(n,m)".
func RefrintWB(n, m int) Policy { return WB(RefrintTime, n, m) }

// PeriodicWB returns "P.WB(n,m)".
func PeriodicWB(n, m int) Policy { return WB(PeriodicTime, n, m) }

// String renders the policy with the paper's labels, e.g. "R.WB(32,32)".
// The labels of the swept policies are formatted once, so labelling a
// simulation result allocates nothing.
func (p Policy) String() string {
	if p.Time == NoRefresh {
		return "SRAM"
	}
	if l, ok := sweepLabels[p]; ok {
		return l
	}
	return p.format()
}

// sweepLabels holds the label of every policy of Table 5.4.
var sweepLabels = func() map[Policy]string {
	m := make(map[Policy]string)
	for _, p := range SweepPolicies() {
		m[p] = p.format()
	}
	return m
}()

// format renders a refresh policy's label.
func (p Policy) format() string {
	if p.Data == WBData {
		return fmt.Sprintf("%s.WB(%d,%d)", p.Time, p.N, p.M)
	}
	return fmt.Sprintf("%s.%s", p.Time, p.Data)
}

// ParsePolicyLabel parses a policy label as used in the paper's figures:
// "SRAM", "P.all", "P.valid", "P.dirty", "R.all", "R.valid", "R.dirty",
// "P.WB(n,m)" or "R.WB(n,m)".  It is the inverse of Policy.String.
func ParsePolicyLabel(label string) (Policy, error) {
	s := strings.TrimSpace(label)
	if strings.EqualFold(s, "SRAM") {
		return SRAMBaseline, nil
	}
	var timePolicy TimePolicy
	switch {
	case strings.HasPrefix(s, "P."), strings.HasPrefix(s, "p."):
		timePolicy = PeriodicTime
	case strings.HasPrefix(s, "R."), strings.HasPrefix(s, "r."):
		timePolicy = RefrintTime
	default:
		return Policy{}, fmt.Errorf("config: policy %q must start with P. or R. (or be SRAM)", label)
	}
	rest := s[2:]
	switch strings.ToLower(rest) {
	case "all":
		return Policy{Time: timePolicy, Data: AllData}, nil
	case "valid":
		return Policy{Time: timePolicy, Data: ValidData}, nil
	case "dirty":
		return Policy{Time: timePolicy, Data: DirtyData}, nil
	}
	if strings.HasPrefix(strings.ToUpper(rest), "WB(") && strings.HasSuffix(rest, ")") {
		inner := rest[3 : len(rest)-1]
		parts := strings.Split(inner, ",")
		if len(parts) != 2 {
			return Policy{}, fmt.Errorf("config: malformed WB policy %q", label)
		}
		n, err1 := strconv.ParseInt(strings.TrimSpace(parts[0]), 10, 32)
		m, err2 := strconv.ParseInt(strings.TrimSpace(parts[1]), 10, 32)
		if err1 != nil || err2 != nil || n < 0 || m < 0 {
			return Policy{}, fmt.Errorf("config: malformed WB budgets in %q (each must be an integer in [0, %d])", label, math.MaxInt32)
		}
		return WB(timePolicy, int(n), int(m)), nil
	}
	return Policy{}, fmt.Errorf("config: unknown data policy in %q", label)
}

// MarshalText encodes the policy as its paper label, so JSON requests and
// responses carry "R.WB(32,32)" rather than numeric enum values.
func (p Policy) MarshalText() ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return []byte(p.String()), nil
}

// UnmarshalText parses a paper label, inverting MarshalText.
func (p *Policy) UnmarshalText(text []byte) error {
	parsed, err := ParsePolicyLabel(string(text))
	if err != nil {
		return err
	}
	*p = parsed
	return nil
}

// Validate reports policy construction errors.
func (p Policy) Validate() error {
	switch p.Time {
	case PeriodicTime, RefrintTime, NoRefresh:
	default:
		return fmt.Errorf("config: unknown time policy %d", p.Time)
	}
	switch p.Data {
	case AllData, ValidData, DirtyData, WBData:
	default:
		return fmt.Errorf("config: unknown data policy %d", p.Data)
	}
	// A bank keeps its budgets as int32 counts.
	if p.Data == WBData && (p.N < 0 || p.M < 0 || p.N > math.MaxInt32 || p.M > math.MaxInt32) {
		return fmt.Errorf("config: WB(n,m) budgets must lie in [0, %d], got (%d,%d)", math.MaxInt32, p.N, p.M)
	}
	return nil
}

// RefreshesInvalid reports whether the policy spends refresh energy on
// invalid lines (only the All reference policy does).
func (p Policy) RefreshesInvalid() bool { return p.Data == AllData }

// DirtyBudget returns the number of refreshes a dirty, untouched line
// receives before the policy writes it back (or a negative value meaning
// "unbounded").
func (p Policy) DirtyBudget() int {
	switch p.Data {
	case AllData, ValidData, DirtyData:
		return -1 // never forced to write back by the policy
	case WBData:
		return p.N
	default:
		return -1
	}
}

// CleanBudget returns the number of refreshes a valid clean, untouched line
// receives before the policy invalidates it (negative means "unbounded").
func (p Policy) CleanBudget() int {
	switch p.Data {
	case AllData, ValidData:
		return -1
	case DirtyData:
		return 0 // clean lines are never refreshed: invalidate at first decay
	case WBData:
		return p.M
	default:
		return -1
	}
}
