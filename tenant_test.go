// Tenant-scoped sessions: labels flow into telemetry, per-tenant
// counters advance, and scoping never perturbs results.
package tcq_test

import (
	"testing"
	"time"

	"tcq"
)

func TestTenantScopedQueries(t *testing.T) {
	db, q := telemetryDB(t, tcq.WithSimulatedClock(21), tcq.WithTelemetry(16))
	alice := db.Tenant("alice")
	bob := db.Tenant("bob")
	opts := tcq.EstimateOptions{Quota: 5 * time.Second, Seed: 3}

	aEst, err := alice.CountEstimate(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bob.CountEstimate(q, opts); err != nil {
		t.Fatal(err)
	}
	withReq := opts
	withReq.Label = "req-7"
	if _, err := alice.CountEstimate(q, withReq); err != nil {
		t.Fatal(err)
	}

	// Scoping is observational: an unscoped identically-seeded run on a
	// twin DB returns the same estimate.
	twin, tq := telemetryDB(t, tcq.WithSimulatedClock(21), tcq.WithTelemetry(16))
	plain, err := twin.CountEstimate(tq, opts)
	if err != nil {
		t.Fatal(err)
	}
	if *plain != *aEst {
		t.Errorf("tenant scoping perturbed the estimate:\nplain  %+v\ntenant %+v", plain, aEst)
	}

	// Labels reach the history ring, composed as name or name/suffix.
	labels := map[string]bool{}
	for _, h := range db.History() {
		labels[h.Label] = true
	}
	for _, want := range []string{"alice", "bob", "alice/req-7"} {
		if !labels[want] {
			t.Errorf("history missing label %q: %v", want, labels)
		}
	}

	// Tenant views filter to their own traffic.
	if hist := alice.History(); len(hist) != 2 {
		t.Errorf("alice.History: want 2, got %+v", hist)
	}
	if hist := bob.History(); len(hist) != 1 || hist[0].Label != "bob" {
		t.Errorf("bob.History wrong: %+v", hist)
	}

	// Per-tenant counters appear as labeled series.
	snap := db.Metrics()
	if got := snap.Labeled.Counters[tenantQueries("alice")]; got != 2 {
		t.Errorf("alice tenant_queries = %d, want 2", got)
	}
	if got := snap.Labeled.Counters[tenantQueries("bob")]; got != 1 {
		t.Errorf("bob tenant_queries = %d, want 1", got)
	}

	// SQL paths count too.
	if _, err := bob.ExecSQL("SELECT COUNT(*) FROM orders"); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.EstimateSQL("SELECT COUNT(*) FROM orders WHERE amount < 500",
		tcq.EstimateOptions{Quota: 5 * time.Second, Seed: 4}); err != nil {
		t.Fatal(err)
	}
	if got := db.Metrics().Labeled.Counters[tenantQueries("bob")]; got != 3 {
		t.Errorf("bob tenant_queries after SQL = %d, want 3", got)
	}

	// An empty-name tenant is an unscoped view.
	if _, err := db.Tenant("").CountEstimate(q, opts); err != nil {
		t.Fatal(err)
	}
	for k := range db.Metrics().Labeled.Counters {
		if k.Name == "tenant_queries" && k.Label.Value == "" {
			t.Errorf("empty tenant leaked a labeled counter: %v", k)
		}
	}
}

// tenantQueries is the per-tenant query counter's series key.
func tenantQueries(tenant string) tcq.MetricKey {
	return tcq.MetricKey{Name: "tenant_queries", Label: tcq.MetricLabel{Key: "tenant", Value: tenant}}
}
