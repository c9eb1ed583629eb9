package repro

import (
	"os"
	"reflect"
	"regexp"
	"testing"

	"repro/internal/client"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/organizer"
	"repro/internal/pool"
	"repro/internal/server"
)

// TestOptionCensus keeps DESIGN §5's option table equal to the code:
// every exported field of the seven option structs has a row saying who
// sets it and what it defaults to, and no row outlives its field — so
// the knob census cannot grow, or the table rot, unnoticed.
func TestOptionCensus(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `([a-z]+\\.[A-Za-z]+\\.[A-Za-z]+)` \\|").FindAllSubmatch(design, -1) {
		rows[string(m[1])] = true
	}
	fields := 0
	for name, opts := range map[string]any{
		"core.Options":           core.Options{},
		"pool.Options":           pool.Options{},
		"server.Options":         server.Options{},
		"client.Options":         client.Options{},
		"organizer.Options":      organizer.Options{},
		"client.ClusterOptions":  client.ClusterOptions{},
		"container.TopicOptions": container.TopicOptions{},
	} {
		typ := reflect.TypeOf(opts)
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			fields++
			row := name + "." + f.Name
			if !rows[row] {
				t.Errorf("%s has no row in DESIGN §5's option table (option → who sets it → default)", row)
			}
			delete(rows, row)
		}
	}
	for row := range rows {
		t.Errorf("DESIGN §5's option table lists %s, which is not an exported option field", row)
	}
	t.Logf("%d exported option fields", fields)
}
