// Measurement: reproduces the paper's §VI-A characterization of AS-path
// prepending in the wild (Figs. 5 and 6). Origin ASes get realistic
// prepending policies (heavily padded backup upstreams, light inbound
// load balancing); vantage points collect routing tables and — through
// simulated primary-link failures — update streams. The paper's
// observations re-emerge: a minority of table routes carry prepending,
// update streams carry more, and prepend counts cluster at 2-3 with a
// thin tail past 10.
package main

import (
	"fmt"
	"log"

	"aspp/internal/collector"
	"aspp/internal/measure"
	"aspp/internal/topology"
)

func main() {
	cfg := topology.DefaultGenConfig(3000)
	cfg.Seed = 5
	g, err := topology.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	origins, err := collector.AssignOrigins(g, collector.DefaultPolicyConfig())
	if err != nil {
		log.Fatal(err)
	}
	survey := measure.DefaultSurveyConfig()
	survey.Seed = 5
	res, err := measure.RunSurvey(g, origins, survey)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("surveyed %d prefixes from %d origins; %d update messages from churn\n\n",
		res.Prefixes, res.Origins, res.Updates)

	table, err := res.TableCDF()
	if err != nil {
		log.Fatal(err)
	}
	updates, err := res.UpdateCDF()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("fraction of prefixes whose best route carries prepending (Fig. 5):")
	fmt.Printf("  tables:  mean %.1f%%  (min %.1f%%, max %.1f%%)   paper: ~13%%, up to 30%%\n",
		100*table.Mean(), 100*table.Min(), 100*table.Max())
	fmt.Printf("  updates: mean %.1f%%  — failovers expose the padded backups\n", 100*updates.Mean())
	if t1, err := res.Tier1CDF(); err == nil {
		fmt.Printf("  tier-1 monitors: mean %.1f%%\n", 100*t1.Mean())
	}

	fmt.Println("\ndistribution of prepend counts over prepended routes (Fig. 6):")
	fmt.Println("  λ   tables   updates")
	for _, v := range []int{2, 3, 4, 5, 8, 12, 20} {
		fmt.Printf("  %-3d %6.1f%%  %6.1f%%\n",
			v, 100*res.TablePrependDist.Fraction(v), 100*res.UpdatePrependDist.Fraction(v))
	}
	fmt.Println("\npaper: 34% of prepended routes repeat twice, 22% three times, ~1% above ten.")
}
