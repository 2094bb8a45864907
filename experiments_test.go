package autorfm

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// quickCapture holds the `== id` and `summary:` lines of
// `autorfm-bench -exp all -scale quick -seed 1 -report`; CI rebuilds it and
// diffs it against this file, so it always matches the code.
const quickCapture = "internal/exp/testdata/quick_summary.txt"

// span is the range of true values consistent with a number as printed.
type span struct{ lo, hi float64 }

func (s span) String() string { return fmt.Sprintf("[%g, %g]", s.lo, s.hi) }

// printedSpan parses a number as EXPERIMENTS.md prints it ("3.4", "+30",
// "−3") and returns every value that rounds to it.
func printedSpan(text string) (span, error) {
	v, err := strconv.ParseFloat(strings.Replace(text, "−", "-", 1), 64)
	if err != nil {
		return span{}, err
	}
	half := 0.5
	if i := strings.IndexByte(text, '.'); i >= 0 {
		half = 0.5 * math.Pow(10, -float64(len(text)-i-1))
	}
	return span{v - half, v + half}, nil
}

// capture maps "id key" to the span of a summary value, which the report
// prints with three decimals.
type capture map[string]span

func loadCapture(t *testing.T) (capture, []string) {
	t.Helper()
	f, err := os.Open(quickCapture)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c := capture{}
	var ids []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "== "):
			id, _, _ := strings.Cut(strings.TrimPrefix(line, "== "), ":")
			ids = append(ids, id)
		case strings.HasPrefix(line, "summary: ") && len(ids) > 0:
			for _, kv := range strings.Fields(strings.TrimPrefix(line, "summary: ")) {
				k, v, _ := strings.Cut(kv, "=")
				s, err := printedSpan(v)
				if err != nil {
					t.Fatalf("%s: %s: %v", quickCapture, kv, err)
				}
				c[ids[len(ids)-1]+" "+k] = s
			}
		default:
			t.Fatalf("%s: unexpected line %q", quickCapture, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return c, ids
}

// docCell is one EXPERIMENTS.md number's source in the capture: a summary
// value, or a ratio or difference of two.
type docCell struct {
	name string
	eval func(capture) (span, bool)
}

func at(id, key string) docCell {
	return docCell{id + " " + key, func(c capture) (span, bool) {
		s, ok := c[id+" "+key]
		return s, ok
	}}
}

// ratio is a/b for positive a and b.
func ratio(a, b docCell) docCell {
	return docCell{a.name + " / " + b.name, func(c capture) (span, bool) {
		x, xok := a.eval(c)
		y, yok := b.eval(c)
		return span{x.lo / y.hi, x.hi / y.lo}, xok && yok
	}}
}

func diff(a, b docCell) docCell {
	return docCell{a.name + " - " + b.name, func(c capture) (span, bool) {
		x, xok := a.eval(c)
		y, yok := b.eval(c)
		return span{x.lo - y.hi, x.hi - y.lo}, xok && yok
	}}
}

// inverse is 1/a for positive a.
func inverse(a docCell) docCell {
	return docCell{"1 / " + a.name, func(c capture) (span, bool) {
		x, ok := a.eval(c)
		return span{1 / x.hi, 1 / x.lo}, ok
	}}
}

// measured lists every number EXPERIMENTS.md reports as measured: the
// section it sits in, its text with {} where each number stands (runs of
// whitespace match one space), and each number's source in the capture.
// Claims written as approximations ("~2.5×", ">8×", "~9pp") are left out.
var measured = []struct {
	section, text string
	cells         []docCell
}{
	{"Headline", "| AutoRFM-4 (Rubix+FM) average slowdown | 3.1% | **{}%** |", []docCell{at("fig11", "autorfm4_avg_pct")}},
	{"Headline", "| AutoRFM-8 average slowdown | 2.3% | **{}%** |", []docCell{at("fig11", "autorfm8_avg_pct")}},
	{"Headline", "| Tolerated TRH-D at AutoRFMTH 4 (MINT+FM) | 74 | **{}** |", []docCell{at("tab6", "autorfm4_trhd_fm")}},
	{"Headline", "| RFM-4 average slowdown | 33% | **{}%** |", []docCell{at("fig11", "rfm4_avg_pct")}},
	{"Headline", "| RFM-8 average slowdown | 12.9% | **{}%** |", []docCell{at("fig11", "rfm8_avg_pct")}},
	{"Headline", "| AutoRFM beats RFM at TH 4 | 10.6× | **{}×** |",
		[]docCell{ratio(at("fig11", "rfm4_avg_pct"), at("fig11", "autorfm4_avg_pct"))}},

	{"Fig 1(d) / Fig 3", "| 32 | 702 (computed {}) | 0.2% | {}% |",
		[]docCell{at("fig1d", "trhd_rfm32"), at("fig3", "rfm32_avg_slowdown_pct")}},
	{"Fig 1(d) / Fig 3", "| 16 | 356 (computed {}) | 4.4% | {}% |",
		[]docCell{at("fig1d", "trhd_rfm16"), at("fig3", "rfm16_avg_slowdown_pct")}},
	{"Fig 1(d) / Fig 3", "| 8 | 182 (computed {}) | 12.9% | {}% |",
		[]docCell{at("fig1d", "trhd_rfm8"), at("fig3", "rfm8_avg_slowdown_pct")}},
	{"Fig 1(d) / Fig 3", "| 4 | 96 (computed {}) | 33% | {}% |",
		[]docCell{at("fig1d", "trhd_rfm4"), at("fig3", "rfm4_avg_slowdown_pct")}},

	{"Table III", "| 4 | 96 | {} |", []docCell{at("tab3", "trhd_w4")}},
	{"Table III", "| 8 | 182 | {} |", []docCell{at("tab3", "trhd_w8")}},
	{"Table III", "| 16 | 356 | {} |", []docCell{at("tab3", "trhd_w16")}},
	{"Table III", "| 32 | 702 | {} |", []docCell{at("tab3", "trhd_w32")}},

	{"Table V ", "**ACT-PKI {}%, ACT-per-tREFI {}%**",
		[]docCell{at("tab5", "mean_actpki_error_pct"), at("tab5", "mean_acttrefi_error_pct")}},

	{"Fig 8", "| Avg slowdown | 16.5% | {}% | 3.1% | **{}%** |",
		[]docCell{at("fig8", "zen_avg_slowdown_pct"), at("fig8", "rubix_avg_slowdown_pct")}},
	{"Fig 8", "| ALERT per ACT | 3.7% | {}% | 0.22% | **{}%** |",
		[]docCell{at("fig8", "zen_alert_per_act_pct"), at("fig8", "rubix_alert_per_act_pct")}},
	{"Fig 8", "a page-in-row mapping reaches {}% alerts / {}% slowdown",
		[]docCell{at("ablate", "map_page-in-row_alert_pct"), at("ablate", "map_page-in-row_slowdown")}},

	{"Table VI", "| 4 | 3.1% | {}% | 96 | {} | 74 | {} |",
		[]docCell{at("tab6", "autorfm4_slowdown_pct"), at("tab6", "autorfm4_trhd_rm"), at("tab6", "autorfm4_trhd_fm")}},
	{"Table VI", "| 5 | 2.8% | {}% | 117 | {} | 96 | {} |",
		[]docCell{at("tab6", "autorfm5_slowdown_pct"), at("tab6", "autorfm5_trhd_rm"), at("tab6", "autorfm5_trhd_fm")}},
	{"Table VI", "| 6 | 2.7% | {}% | 139 | {} | 117 | {} |",
		[]docCell{at("tab6", "autorfm6_slowdown_pct"), at("tab6", "autorfm6_trhd_rm"), at("tab6", "autorfm6_trhd_fm")}},
	{"Table VI", "| 8 | 2.3% | {}% | 182 | {} | 161 | {} |",
		[]docCell{at("tab6", "autorfm8_slowdown_pct"), at("tab6", "autorfm8_trhd_rm"), at("tab6", "autorfm8_trhd_fm")}},

	{"Fig 11", "Measured averages: RFM-4 {}% vs AutoRFM-4 {}%; RFM-8 {}% vs AutoRFM-8 {}%",
		[]docCell{at("fig11", "rfm4_avg_pct"), at("fig11", "autorfm4_avg_pct"),
			at("fig11", "rfm8_avg_pct"), at("fig11", "autorfm8_avg_pct")}},

	{"Fig 12", "| Rubix alone | +36 mW | {} mW | {} |",
		[]docCell{at("fig12", "rubix_overhead_mw"), at("fig12", "rubix_mitig_mw")}},
	{"Fig 12", "| AutoRFM-8 | +65 mW | {} mW | {} mW (paper 28) |",
		[]docCell{at("fig12", "autorfm8_overhead_mw"), at("fig12", "autorfm-8_mitig_mw")}},
	{"Fig 12", "| AutoRFM-4 | +92 mW | {} mW | {} mW (paper 55) |",
		[]docCell{at("fig12", "autorfm4_overhead_mw"), at("fig12", "autorfm-4_mitig_mw")}},
	{"Fig 12", "our Rubix adds {}% ACTs", []docCell{at("fig17", "rubix_extra_acts_pct_th4")}},

	{"Fig 13", "| 74 | {}% | {}% | {}% |",
		[]docCell{at("fig13", "prac_at_74"), at("fig13", "rfm_at_74"), at("fig13", "autorfm_at_74")}},
	{"Fig 13", "| 161 | {}% | {}% | {}% |",
		[]docCell{at("fig13", "prac_at_161"), at("fig13", "rfm_at_161"), at("fig13", "autorfm_at_161")}},
	{"Fig 13", "| 356 | {}% | {}% | {}% |",
		[]docCell{at("fig13", "prac_at_356"), at("fig13", "rfm_at_356"), at("fig13", "autorfm_at_356")}},
	{"Fig 13", "| 702 | {}% | {}% | {}% |",
		[]docCell{at("fig13", "prac_at_702"), at("fig13", "rfm_at_702"), at("fig13", "autorfm_at_702")}},
	{"Fig 13", "all seven cells ({}%)", []docCell{at("fig13", "prac_at_74")}},

	{"Fig 14 / Fig 16", "FM damage limit {} (paper 104), minimum safe TRH-D {} (paper 52), and the mixed-attack example is {}× worse",
		[]docCell{at("fig16", "fm_damage_limit"), at("fig16", "fm_min_safe_trhd"), inverse(at("fig16", "mixed_over_direct"))}},

	{"Fig 17", "| RFM-4 on Zen | 33.1% | {}% |", []docCell{at("fig17", "zen_rfm4_pct")}},
	{"Fig 17", "| RFM-4 on Rubix | 35.1% (+2.0pp) | {}% (**{}pp**) |",
		[]docCell{at("fig17", "rubix_rfm4_pct"), diff(at("fig17", "rubix_rfm4_pct"), at("fig17", "zen_rfm4_pct"))}},
	{"Fig 17", "| Rubix extra ACTs | 18% | {}% |", []docCell{at("fig17", "rubix_extra_acts_pct_th4")}},
	{"Fig 17", "The absolute gap ({}pp vs +2.0pp)",
		[]docCell{diff(at("fig17", "rubix_rfm4_pct"), at("fig17", "zen_rfm4_pct"))}},

	{"Fig 18", "| 4 | {} | {} | {} |",
		[]docCell{at("fig18", "pride_th4"), at("fig18", "mint_th4"), at("fig18", "mithril_maxacts_th4")}},
	{"Fig 18", "| 8 | {} | {} | {} |",
		[]docCell{at("fig18", "pride_th8"), at("fig18", "mint_th8"), at("fig18", "mithril_maxacts_th8")}},

	{"Appendix B", "| baseline (±1,±2) | **{} failures**", []docCell{at("appb", "baseline_half-double_failures")}},
	{"Appendix B", "| recursive | {} failures |", []docCell{at("appb", "recursive_half-double_failures")}},
	{"Appendix B", "| fractal | {} failures | {} failures | {} failures |",
		[]docCell{at("appb", "fractal_half-double_failures"), at("appb", "fractal_double-sided_failures"),
			at("appb", "fractal_circular-4_failures")}},

	{"Ablations", "| 200/400/800 ns | {}% → {}% → {}% slowdown",
		[]docCell{at("ablate", "retry200_slowdown"), at("ablate", "retry400_slowdown"), at("ablate", "retry800_slowdown")}},
	{"Ablations", "| eager (RAAmax=1×) vs deferred (4×/8×) | {}% vs {}%/{}%",
		[]docCell{at("ablate", "raamax1_slowdown"), at("ablate", "raamax4_slowdown"), at("ablate", "raamax8_slowdown")}},
	{"Ablations", "| page-in-row / zen / rubix | {}% / {}% / {}% ALERT rate",
		[]docCell{at("ablate", "map_page-in-row_alert_pct"), at("ablate", "map_amd-zen_alert_pct"),
			at("ablate", "map_rubix_alert_pct")}},
	{"Ablations", "| off / on | {}% vs {}% Zen alerts",
		[]docCell{at("ablate", "prefetch_off_alert_pct"), at("ablate", "prefetch_on(40)_alert_pct")}},

	{"Reading the deviations", "**Zen ALERT rate {}% vs 3.7%.**", []docCell{at("fig8", "zen_alert_per_act_pct")}},
	{"Reading the deviations", "The page-in-row ablation ({}%)", []docCell{at("ablate", "map_page-in-row_alert_pct")}},
	{"Reading the deviations", "**Rubix ACT inflation {}% vs 18%.**", []docCell{at("fig17", "rubix_extra_acts_pct_th4")}},
}

// TestExperimentsDocMatchesCapture: every measured number in EXPERIMENTS.md
// must round from the committed quick-scale capture at the precision the
// document prints it, so a stale or mistyped number fails here rather than
// drifting silently. Where they disagree, the document is what to fix.
func TestExperimentsDocMatchesCapture(t *testing.T) {
	c, ids := loadCapture(t)
	var want []string
	for _, e := range Experiments() {
		want = append(want, e.ID)
	}
	if strings.Join(ids, " ") != strings.Join(want, " ") {
		t.Fatalf("%s covers experiments %v, want %v", quickCapture, ids, want)
	}

	raw, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := strings.Join(strings.Fields(string(raw)), " ")
	number := `([−+-]?[0-9]+(?:\.[0-9]+)?)`
	for _, m := range measured {
		start := strings.Index(doc, "## "+m.section)
		if start < 0 {
			t.Errorf("EXPERIMENTS.md has no section %q", m.section)
			continue
		}
		section := doc[start:]
		if end := strings.Index(section[3:], "## "); end >= 0 {
			section = section[:3+end]
		}
		re := regexp.MustCompile(strings.ReplaceAll(regexp.QuoteMeta(m.text), `\{\}`, number))
		got := re.FindStringSubmatch(section)
		if got == nil {
			t.Errorf("EXPERIMENTS.md section %q has no %q", m.section, m.text)
			continue
		}
		for i, cl := range m.cells {
			printed, err := printedSpan(got[i+1])
			if err != nil {
				t.Fatal(err)
			}
			v, ok := cl.eval(c)
			switch {
			case !ok:
				t.Errorf("%q: %s is not in %s", m.text, cl.name, quickCapture)
			case printed.hi < v.lo || v.hi < printed.lo:
				t.Errorf("EXPERIMENTS.md %q prints %s where %s is %s in %s",
					m.text, got[i+1], cl.name, v, quickCapture)
			}
		}
	}
}
