package tcq

import "tcq/internal/trace"

// Tenant is a tenant-scoped view of a DB: the same shared store and
// engine, with every query stamped with the tenant's name so telemetry
// (progress registry, history ring, flight recorder) and the metrics
// registry attribute work per tenant. Scoping is observational — it
// never changes an estimate — and free when the DB runs without
// telemetry. Admission control per tenant is layered on top by the
// tcqd server (one sched.Controller per tenant); the Tenant itself
// does not gate.
//
// Labels compose as "name" for a bare tenant query and "name/suffix"
// when the caller supplies its own Label (e.g. a request id), so
// /queries?label=name and /history?label=name select exactly this
// tenant's traffic.
type Tenant struct {
	db   *DB
	name string
}

// Tenant returns the tenant-scoped view named name. Views are cheap
// (two words) and need not be cached; an empty name yields an
// unscoped view equivalent to the DB itself.
func (db *DB) Tenant(name string) *Tenant { return &Tenant{db: db, name: name} }

// Name reports the tenant's name.
func (t *Tenant) Name() string { return t.name }

// DB returns the underlying database.
func (t *Tenant) DB() *DB { return t.db }

// scope stamps the tenant label onto opts and counts the query against
// the tenant's labeled metrics series.
func (t *Tenant) scope(opts EstimateOptions) EstimateOptions {
	if t.name != "" {
		if opts.Label == "" {
			opts.Label = t.name
		} else {
			opts.Label = t.name + "/" + opts.Label
		}
	}
	t.count()
	return opts
}

// count bumps the per-tenant query counter (rendered on /metrics as
// tcq_tenant_queries_total{tenant="name"}).
func (t *Tenant) count() {
	if t.name == "" {
		return
	}
	t.db.metrics.Add("tenant_queries", 1, trace.Label{Key: "tenant", Value: t.name})
}

// CountEstimate is DB.CountEstimate under the tenant label.
func (t *Tenant) CountEstimate(q Query, opts EstimateOptions) (*Estimate, error) {
	return t.db.CountEstimate(q, t.scope(opts))
}

// SumEstimate is DB.SumEstimate under the tenant label.
func (t *Tenant) SumEstimate(q Query, col string, opts EstimateOptions) (*Estimate, error) {
	return t.db.SumEstimate(q, col, t.scope(opts))
}

// AvgEstimate is DB.AvgEstimate under the tenant label.
func (t *Tenant) AvgEstimate(q Query, col string, opts EstimateOptions) (*Estimate, error) {
	return t.db.AvgEstimate(q, col, t.scope(opts))
}

// GroupCountEstimate is DB.GroupCountEstimate under the tenant label.
func (t *Tenant) GroupCountEstimate(q Query, col string, opts EstimateOptions) ([]GroupCount, *Estimate, error) {
	return t.db.GroupCountEstimate(q, col, t.scope(opts))
}

// EstimateSQL is DB.EstimateSQL under the tenant label.
func (t *Tenant) EstimateSQL(sql string, opts EstimateOptions) (*SQLResult, error) {
	return t.db.EstimateSQL(sql, t.scope(opts))
}

// ExecSQL is DB.ExecSQL counted against the tenant (exact execution
// carries no telemetry label; the per-tenant query counter still
// advances).
func (t *Tenant) ExecSQL(sql string) (*SQLResult, error) {
	t.count()
	return t.db.ExecSQL(sql)
}

// InFlight lists the tenant's queries currently evaluating.
func (t *Tenant) InFlight() []QueryProgress {
	return filterLabel(t.db.InFlight(), t.name, func(p QueryProgress) string { return p.Label })
}

// History lists the tenant's recently completed queries.
func (t *Tenant) History() []QuerySummary {
	return filterLabel(t.db.History(), t.name, func(s QuerySummary) string { return s.Label })
}

// filterLabel keeps records whose label is the tenant name or a
// "name/..." composite.
func filterLabel[T any](in []T, name string, label func(T) string) []T {
	if name == "" {
		return in
	}
	out := in[:0]
	for _, v := range in {
		l := label(v)
		if l == name || (len(l) > len(name) && l[:len(name)] == name && l[len(name)] == '/') {
			out = append(out, v)
		}
	}
	return out
}
