package obs

import (
	"fmt"
	"io"
	"sort"
)

// WriteProm renders the snapshot in the Prometheus text exposition format
// (one HELP/TYPE header per metric name, cumulative `le` histogram buckets
// with the conventional +Inf terminator). extra labels are appended to every
// series — `pmembench -metrics` uses them to tag series with the library,
// rank count and phase that produced the snapshot.
func (s Snapshot) WriteProm(w io.Writer, extra ...Label) error {
	// Group series by name so HELP/TYPE headers are emitted once per family,
	// preserving snapshot (registration) order of first appearance.
	var names []string
	byName := make(map[string][]MetricValue)
	for _, m := range s.Metrics {
		if _, ok := byName[m.Name]; !ok {
			names = append(names, m.Name)
		}
		byName[m.Name] = append(byName[m.Name], m)
	}
	sort.Strings(names)
	for _, name := range names {
		family := byName[name]
		if family[0].Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, family[0].Help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, family[0].Kind); err != nil {
			return err
		}
		for _, m := range family {
			labels := append(append([]Label(nil), m.Labels...), extra...)
			switch m.Kind {
			case "histogram":
				var cum int64
				for _, b := range m.Buckets {
					cum += b.Count
					le := append(append([]Label(nil), labels...),
						Label{Key: "le", Value: fmt.Sprintf("%d", b.Le)})
					if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, labelString(le), cum); err != nil {
						return err
					}
				}
				inf := append(append([]Label(nil), labels...), Label{Key: "le", Value: "+Inf"})
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, labelString(inf), m.Count); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", name, labelString(labels), m.Sum); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labelString(labels), m.Count); err != nil {
					return err
				}
			default:
				if _, err := fmt.Fprintf(w, "%s%s %d\n", name, labelString(labels), m.Value); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
