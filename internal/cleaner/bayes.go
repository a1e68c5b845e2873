package cleaner

import (
	"math"
	"slices"

	"repro/internal/feature"
)

// NaiveBayes is a two-class naive Bayes classifier over a gathered
// feature.Frame: Gaussian likelihoods for numeric attributes,
// Laplace-smoothed frequency tables for categorical attributes. It is
// used two ways: (a) to clean D' (train on D' vs a background sample,
// drop D' members the model itself rejects), and (b) as a quick
// consistency check in tests.
type NaiveBayes struct {
	fr    *feature.Frame
	prior [2]float64 // log priors
	// numMean/numStd[attr][class] parameterize the numeric likelihoods.
	numMean, numStd [][2]float64
	// catLog[attr][class][code] = log P(value | class); values a class
	// never saw hold a small default log-probability.
	catLog [][2][]float64
}

// TrainNaiveBayes fits the classifier on a frame whose first npos
// positions are the positive class and whose rest is the negative one;
// both must be non-empty.
func TrainNaiveBayes(fr *feature.Frame, npos int) *NaiveBayes {
	sp, n := fr.Space, len(fr.Rows)
	nb := &NaiveBayes{
		fr:      fr,
		numMean: make([][2]float64, len(sp.Attrs)),
		numStd:  make([][2]float64, len(sp.Attrs)),
		catLog:  make([][2][]float64, len(sp.Attrs)),
	}
	nb.prior[0] = math.Log(float64(n-npos) / float64(n))
	nb.prior[1] = math.Log(float64(npos) / float64(n))

	classRange := [2][2]int{{npos, n}, {0, npos}}
	for ai := range sp.Attrs {
		if floats := fr.Floats[ai]; floats != nil {
			for cls, r := range classRange {
				var sum, sumsq float64
				var cnt int
				for _, f := range floats[r[0]:r[1]] {
					if math.IsNaN(f) {
						continue
					}
					sum += f
					sumsq += f * f
					cnt++
				}
				if cnt == 0 {
					nb.numMean[ai][cls], nb.numStd[ai][cls] = 0, 1
					continue
				}
				m := sum / float64(cnt)
				variance := sumsq/float64(cnt) - m*m
				if variance < 1e-9 {
					variance = 1e-9
				}
				nb.numMean[ai][cls], nb.numStd[ai][cls] = m, math.Sqrt(variance)
			}
			continue
		}
		codes := fr.Codes[ai]
		ncodes := 0
		for _, c := range codes {
			ncodes = max(ncodes, int(c)+1)
		}
		// Laplace smoothing over the attribute's known values.
		vocab := len(sp.Attrs[ai].Values) + 1
		for cls, r := range classRange {
			counts := make([]int, ncodes)
			cnt := 0
			for _, c := range codes[r[0]:r[1]] {
				if c >= 0 {
					counts[c]++
					cnt++
				}
			}
			table := make([]float64, ncodes)
			for c, k := range counts {
				table[c] = unseenLogProb
				if k > 0 {
					table[c] = math.Log(float64(k+1) / float64(cnt+vocab))
				}
			}
			nb.catLog[ai][cls] = table
		}
	}
	return nb
}

// unseenLogProb is the log-probability of a categorical value the class
// never showed.
var unseenLogProb = math.Log(1e-3)

// LogOdds returns log P(pos|row) − log P(neg|row) up to a constant, for
// the row at frame position i.
func (nb *NaiveBayes) LogOdds(i int) float64 {
	ll := nb.prior
	for ai := range nb.catLog {
		if floats := nb.fr.Floats[ai]; floats != nil {
			f := floats[i]
			if math.IsNaN(f) {
				continue
			}
			mean, std := nb.numMean[ai], nb.numStd[ai]
			for cls := 0; cls < 2; cls++ {
				z := (f - mean[cls]) / std[cls]
				ll[cls] += -0.5*z*z - math.Log(std[cls])
			}
		} else if c := nb.fr.Codes[ai][i]; c >= 0 {
			for cls := 0; cls < 2; cls++ {
				ll[cls] += nb.catLog[ai][cls][c]
			}
		}
	}
	return ll[1] - ll[0]
}

// Predict reports whether the row at frame position i is classified
// positive.
func (nb *NaiveBayes) Predict(i int) bool { return nb.LogOdds(i) > 0 }

// ---------------------------------------------------------------------

// Options tunes Clean.
type Options struct {
	// Method selects the consistency technique: "kmeans" (default),
	// "bayes", or "none".
	Method string
	// K is the cluster count for kmeans (default 2).
	K int
	// MaxIters bounds Lloyd iterations (default 50).
	MaxIters int
	// Seed makes cleaning deterministic (default 1).
	Seed int64
	// MinKeepFrac refuses to discard more than (1−MinKeepFrac) of D'
	// (default 0.5): the user's selection is evidence, not noise.
	MinKeepFrac float64
	// Background are rows to contrast against for the bayes method
	// (typically F − D'); required for "bayes".
	Background []int
}

func (o *Options) defaults() {
	if o.Method == "" {
		o.Method = "kmeans"
	}
	if o.K <= 0 {
		o.K = 2
	}
	if o.MaxIters <= 0 {
		o.MaxIters = 50
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.MinKeepFrac <= 0 {
		o.MinKeepFrac = 0.5
	}
}

// Clean returns the self-consistent subset of dprime (row ids into the
// space's table), per the configured method.
//
// kmeans: cluster D' in standardized numeric space with k clusters and
// keep the largest cluster (with every cluster whose centroid is close
// to it merged in). bayes: train NB on D' vs Background and keep the D'
// rows the model accepts. Falls back to returning D' unchanged whenever
// the technique would discard too much.
func Clean(sp *feature.Space, dprime []int, opt Options) []int {
	opt.defaults()
	if len(dprime) < 4 || opt.Method == "none" {
		return append([]int(nil), dprime...)
	}
	switch opt.Method {
	case "bayes":
		if len(opt.Background) == 0 {
			return append([]int(nil), dprime...)
		}
		fr := sp.Gather(slices.Concat(dprime, opt.Background))
		nb := TrainNaiveBayes(fr, len(dprime))
		kept := make([]int, 0, len(dprime))
		for i, r := range dprime {
			if nb.Predict(i) {
				kept = append(kept, r)
			}
		}
		if float64(len(kept)) < opt.MinKeepFrac*float64(len(dprime)) {
			return append([]int(nil), dprime...)
		}
		return kept
	default: // kmeans
		if sp.Dim() == 0 {
			return append([]int(nil), dprime...)
		}
		fr := sp.Gather(dprime)
		points := make([][]float64, len(dprime))
		for i := range dprime {
			points[i] = fr.Vector(i, nil)
		}
		km := KMeans(points, opt.K, opt.MaxIters, opt.Seed)
		if len(km.Sizes) == 0 {
			return append([]int(nil), dprime...)
		}
		// Dominant cluster.
		best := 0
		for c, n := range km.Sizes {
			if n > km.Sizes[best] {
				best = c
			}
		}
		// Merge clusters whose centroid is within 1.5x the dominant
		// cluster's RMS radius — k=2 on clean data should not split it.
		var radius float64
		for i, p := range points {
			if km.Assign[i] == best {
				radius += sqDist(p, km.Centroids[best])
			}
		}
		radius = math.Sqrt(radius / math.Max(1, float64(km.Sizes[best])))
		keepCluster := make([]bool, len(km.Centroids))
		keepCluster[best] = true
		for c := range km.Centroids {
			if c != best && km.Sizes[c] > 0 &&
				math.Sqrt(sqDist(km.Centroids[c], km.Centroids[best])) <= 1.5*radius {
				keepCluster[c] = true
			}
		}
		kept := make([]int, 0, len(dprime))
		for i, r := range dprime {
			if keepCluster[km.Assign[i]] {
				kept = append(kept, r)
			}
		}
		if float64(len(kept)) < opt.MinKeepFrac*float64(len(dprime)) {
			return append([]int(nil), dprime...)
		}
		return kept
	}
}
