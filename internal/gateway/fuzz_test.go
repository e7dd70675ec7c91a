package gateway

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/rmi"
)

// FuzzLoadTenantConfig feeds arbitrary file contents to
// LoadTenantConfig. A config it accepts must name every tenant once
// with a usable key, survive a round trip through its own JSON encoding
// unchanged, and register on a gateway tenant by tenant.
func FuzzLoadTenantConfig(f *testing.F) {
	f.Add([]byte(`{"tenants":[{"name":"acme","key":"00112233"}]}`))
	f.Add([]byte(`{"tenants":[{"name":"a","key":"0a","maxConns":2,"callsPerSec":50,"bytesPerSec":1e6,"feeCeilingCents":12.5},{"name":"b","key":"ff"}]}`))
	f.Add([]byte(`{"tenants":[{"name":"a","key":"0a"},{"name":"a","key":"0b"}]}`))
	f.Add([]byte(`{"tenants":[{"name":"a","key":"xyz"}]}`))
	f.Add([]byte(`{"tenants":[]}`))
	f.Add([]byte(`not json`))
	dir := f.TempDir()
	path := filepath.Join(dir, "tenants.json")
	again := filepath.Join(dir, "again.json")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		tenants, err := LoadTenantConfig(path)
		if err != nil {
			return
		}
		if len(tenants) == 0 {
			t.Fatal("accepted a config with no tenants")
		}
		seen := make(map[string]bool, len(tenants))
		for _, spec := range tenants {
			if spec.Name == "" || seen[spec.Name] {
				t.Fatalf("accepted tenant name %q (empty or duplicate)", spec.Name)
			}
			seen[spec.Name] = true
			if _, err := spec.SessionKey(); err != nil {
				t.Fatalf("accepted an unusable key: %v", err)
			}
		}
		out, err := json.Marshal(tenantConfig{Tenants: tenants})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(again, out, 0o600); err != nil {
			t.Fatal(err)
		}
		reloaded, err := LoadTenantConfig(again)
		if err != nil {
			t.Fatalf("written config does not load: %v", err)
		}
		if !reflect.DeepEqual(reloaded, tenants) {
			t.Fatalf("round trip changed the config:\n got  %+v\n want %+v", reloaded, tenants)
		}
		g, err := New(rmi.NewServer("fuzz"), Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		for _, spec := range tenants {
			if err := g.AddTenant(spec); err != nil {
				t.Fatalf("AddTenant(%q): %v", spec.Name, err)
			}
		}
	})
}
