package main

import (
	"bytes"
	"log"
	"os"
	"strconv"
	"testing"
	"time"
)

// TestEnvFallbacks holds every flag type to env's one rule: an unset or
// empty variable means the fallback with nothing logged, a valid value
// wins, and an invalid one is logged and falls back.
func TestEnvFallbacks(t *testing.T) {
	t.Run("int", func(t *testing.T) { checkEnv(t, 3, strconv.Atoi, "8", 8, "eight") })
	t.Run("float", func(t *testing.T) { checkEnv(t, 0.5, parseFloat, "2.5", 2.5, "fast") })
	t.Run("duration", func(t *testing.T) {
		checkEnv(t, time.Second, time.ParseDuration, "90s", 90*time.Second, "90")
	})
	t.Run("bool", func(t *testing.T) { checkEnv(t, false, strconv.ParseBool, "1", true, "yes") })
	// Every string is a valid string: no invalid case.
	t.Run("string", func(t *testing.T) { checkEnv(t, "/var/lib", parseString, "/srv", "/srv", "") })
}

// checkEnv reads one variable through env unset, empty, set to valid
// and, unless invalid is "", set to invalid.
func checkEnv[T comparable](t *testing.T, fallback T, parse func(string) (T, error), valid string, want T, invalid string) {
	const name = "DLSIMD_ENV_TEST"
	t.Setenv(name, "") // restores the variable when the test ends
	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)

	for _, c := range []struct {
		name   string
		value  *string
		want   T
		logged bool
	}{
		{"unset", nil, fallback, false},
		{"empty", new(string), fallback, false},
		{"valid", &valid, want, false},
		{"invalid", &invalid, fallback, true},
	} {
		if c.name == "invalid" && invalid == "" {
			continue
		}
		if c.value == nil {
			os.Unsetenv(name)
		} else {
			os.Setenv(name, *c.value)
		}
		logged.Reset()
		if got := env(name, fallback, parse); got != c.want {
			t.Errorf("%s: env = %v, want %v", c.name, got, c.want)
		}
		if (logged.Len() > 0) != c.logged {
			t.Errorf("%s: logged %q, want a log line: %v", c.name, logged.String(), c.logged)
		}
	}
}
