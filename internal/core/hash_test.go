package core

import (
	"reflect"
	"testing"

	"repro/internal/sample"
)

// hashExcluded lists the Config fields Hash deliberately ignores, with
// the reason. Every other exported field must move the hash.
var hashExcluded = map[string]string{
	// A deprecated no-op: nothing reads it, so it cannot change a run.
	"SimWorkers": "deprecated; ignored by the pipeline",
}

// perturb returns every single-leaf change of v: a flipped bool, an
// incremented number, an extended string, a nil pointer made non-nil,
// and, inside structs and non-nil pointers, each exported field changed
// alone. It fails the test on a kind it does not know, so a new field
// type must be taught here rather than silently skipped.
func perturb(t *testing.T, name string, v reflect.Value) []reflect.Value {
	t.Helper()
	one := func(f func(reflect.Value)) []reflect.Value {
		p := reflect.New(v.Type()).Elem()
		p.Set(v)
		f(p)
		return []reflect.Value{p}
	}
	switch v.Kind() {
	case reflect.Bool:
		return one(func(p reflect.Value) { p.SetBool(!p.Bool()) })
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return one(func(p reflect.Value) { p.SetInt(p.Int() + 1) })
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return one(func(p reflect.Value) { p.SetUint(p.Uint() + 1) })
	case reflect.Float32, reflect.Float64:
		return one(func(p reflect.Value) { p.SetFloat(p.Float() + 1) })
	case reflect.String:
		return one(func(p reflect.Value) { p.SetString(p.String() + "x") })
	case reflect.Pointer:
		if v.IsNil() {
			return []reflect.Value{reflect.New(v.Type().Elem())}
		}
		var out []reflect.Value
		for _, e := range perturb(t, name, v.Elem()) {
			p := reflect.New(v.Type().Elem())
			p.Elem().Set(e)
			out = append(out, p)
		}
		return out
	case reflect.Struct:
		var out []reflect.Value
		for i := 0; i < v.NumField(); i++ {
			if !v.Type().Field(i).IsExported() {
				continue
			}
			for _, f := range perturb(t, name+"."+v.Type().Field(i).Name, v.Field(i)) {
				p := reflect.New(v.Type()).Elem()
				p.Set(v)
				p.Field(i).Set(f)
				out = append(out, p)
			}
		}
		return out
	}
	t.Fatalf("%s: no perturbation for kind %s; extend perturb", name, v.Kind())
	return nil
}

// TestHashCoversEveryField: Hash is a hand-kept list of fields, so a new
// Config field left out of it would silently let two different runs share
// one result-cache slot. Every exported field, changed alone from the
// canonical defaults, must change the hash — except the explicit
// exclusions, which must not.
func TestHashCoversEveryField(t *testing.T) {
	sched, err := sample.Parse("30K:60K:430K")
	if err != nil {
		t.Fatal(err)
	}
	// The base enables sampling so the schedule's fields are live; a
	// disabled schedule (Period 0) is rightly hash-neutral. NCPU goes back
	// to 0 ("the machine's count", which canonicalizes identically) so
	// Machine.NCPU is not shadowed by the override.
	base := Config{Sample: sched}.Canonical()
	base.NCPU = 0
	want := base.Hash()
	typ := reflect.TypeOf(base)
	for name := range hashExcluded {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("hashExcluded names %s, which Config no longer has", name)
		}
	}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		_, excluded := hashExcluded[f.Name]
		for _, p := range perturb(t, f.Name, reflect.ValueOf(base).Field(i)) {
			cfg := base
			reflect.ValueOf(&cfg).Elem().Field(i).Set(p)
			if moved := cfg.Hash() != want; moved == excluded {
				t.Errorf("%s = %+v: hash moved=%t, want %t", f.Name, p.Interface(), moved, !excluded)
			}
		}
	}
}
