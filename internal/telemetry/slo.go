package telemetry

import (
	"sort"
	"sync"

	"tcq/internal/trace"
)

// SLO tracks per-tenant deadline outcomes for time-constrained
// queries. A query is a hit when it finished inside its quota
// wire-to-wire and the engine did not overspend; a miss otherwise.
// Infeasible rejections (WCET exceeds the quota or the tenant window —
// the gate's 422s) are tallied separately: they consume no service
// time so they burn no error budget, but operators still want them
// visible per tenant.
//
// Every mutation is double-written to the attached metrics Registry as
// tcq_slo_* labeled families so the /slo JSON report and the /metrics
// scrape always reconcile.
type SLO struct {
	mu      sync.Mutex
	target  float64
	reg     *trace.Registry
	tenants map[string]*tenantSLO
}

type tenantSLO struct {
	hits       int64
	misses     int64
	infeasible int64
	missBySpan map[string]int64
}

// TenantSLO is one tenant's deadline accounting in an SLOReport.
type TenantSLO struct {
	Tenant string `json:"tenant"`
	// Hits and Misses partition completed time-constrained queries.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Infeasible counts admission rejections where no quota could ever
	// be met; excluded from the hit/miss denominator.
	Infeasible int64 `json:"infeasible,omitempty"`
	// HitRate is hits/(hits+misses); 1 when nothing completed yet.
	HitRate float64 `json:"hit_rate"`
	// BudgetBurn is the error-budget burn rate:
	// (misses/(hits+misses)) / (1 - target). 1.0 means the tenant is
	// missing exactly as often as the objective allows; above 1 the
	// budget is burning faster than it accrues.
	BudgetBurn float64 `json:"budget_burn"`
	// MissBySpan attributes each miss to the span that dominated its
	// timeline ("admission_wait", "eval", ...).
	MissBySpan map[string]int64 `json:"miss_by_span,omitempty"`
}

// SLOReport is the /slo endpoint payload.
type SLOReport struct {
	// Target is the deadline-hit objective (e.g. 0.99).
	Target  float64     `json:"target"`
	Tenants []TenantSLO `json:"tenants"`
}

// NewSLO returns an SLO with the given hit-rate objective, clamped to
// (0, 1). reg may be nil to skip the metrics double-write.
func NewSLO(target float64, reg *trace.Registry) *SLO {
	if target <= 0 || target >= 1 {
		target = 0.99
	}
	return &SLO{target: target, reg: reg, tenants: make(map[string]*tenantSLO)}
}

func (s *SLO) tenant(name string) *tenantSLO {
	t := s.tenants[name]
	if t == nil {
		t = &tenantSLO{missBySpan: make(map[string]int64)}
		s.tenants[name] = t
	}
	return t
}

// Hit records a query that met its deadline.
func (s *SLO) Hit(tenant string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	t := s.tenant(tenant)
	t.hits++
	burn := t.burn(s.target)
	s.mu.Unlock()
	if s.reg != nil {
		s.reg.Update(func(tx trace.Tx) {
			tx.Add("slo_hits", 1, trace.Label{Key: "tenant", Value: tenant})
			tx.SetGauge("slo_budget_burn", burn, trace.Label{Key: "tenant", Value: tenant})
		})
	}
}

// Miss records a deadline miss attributed to the dominant span.
func (s *SLO) Miss(tenant, dominant string) {
	if s == nil {
		return
	}
	if dominant == "" {
		dominant = "unknown"
	}
	s.mu.Lock()
	t := s.tenant(tenant)
	t.misses++
	t.missBySpan[dominant]++
	burn := t.burn(s.target)
	s.mu.Unlock()
	if s.reg != nil {
		s.reg.Update(func(tx trace.Tx) {
			tx.Add("slo_misses", 1, trace.Label{Key: "tenant", Value: tenant})
			tx.Add("slo_miss_span", 1, trace.Label{Key: "span", Value: dominant})
			tx.SetGauge("slo_budget_burn", burn, trace.Label{Key: "tenant", Value: tenant})
		})
	}
}

// Infeasible records an admission rejection that no schedule could
// satisfy (the 422 path).
func (s *SLO) Infeasible(tenant string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.tenant(tenant).infeasible++
	s.mu.Unlock()
	if s.reg != nil {
		s.reg.Add("slo_infeasible", 1, trace.Label{Key: "tenant", Value: tenant})
	}
}

func (t *tenantSLO) burn(target float64) float64 {
	total := t.hits + t.misses
	if total == 0 {
		return 0
	}
	return (float64(t.misses) / float64(total)) / (1 - target)
}

// Report snapshots the per-tenant accounting, tenants sorted by name.
func (s *SLO) Report() SLOReport {
	if s == nil {
		return SLOReport{}
	}
	s.mu.Lock()
	rep := SLOReport{Target: s.target, Tenants: make([]TenantSLO, 0, len(s.tenants))}
	for name, t := range s.tenants {
		ten := TenantSLO{
			Tenant:     name,
			Hits:       t.hits,
			Misses:     t.misses,
			Infeasible: t.infeasible,
			HitRate:    1,
			BudgetBurn: t.burn(s.target),
		}
		if total := t.hits + t.misses; total > 0 {
			ten.HitRate = float64(t.hits) / float64(total)
		}
		if len(t.missBySpan) > 0 {
			ten.MissBySpan = make(map[string]int64, len(t.missBySpan))
			for k, v := range t.missBySpan {
				ten.MissBySpan[k] = v
			}
		}
		rep.Tenants = append(rep.Tenants, ten)
	}
	s.mu.Unlock()
	sort.Slice(rep.Tenants, func(i, j int) bool { return rep.Tenants[i].Tenant < rep.Tenants[j].Tenant })
	return rep
}
