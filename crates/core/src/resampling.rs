//! Resampling: systematic ("wheel") resampling and its parallel decomposition.
//!
//! After the correction step, particles with negligible weight are replaced by
//! copies of high-weight particles. The paper uses systematic resampling
//! [Douc & Cappé 2005]: one random number `r ∈ [0, 1)` positions the first of
//! `N` equally spaced arrows on the weight wheel, and each arrow selects the
//! particle whose cumulative-weight slice it falls into.
//!
//! On GAP9 the step is parallelized as in the paper's Fig. 4: the particles are
//! split evenly across the 8 worker cores, each core computes the partial sum of
//! its chunk during weight normalization, and from those partial sums every core
//! can determine **which arrows fall into its chunk** — and therefore which new
//! particles it must produce and where they go in the output buffer — without
//! synchronizing with the other cores. [`PartialSumResampler`] implements exactly
//! that decomposition; the tests verify it selects the same particles as the
//! sequential wheel.
//!
//! Inside a chunk the plan does not walk the wheel arrow by arrow: a walk
//! decides at almost every arrow whether to advance the source, a branch
//! that mispredicts on real posterior weights. Instead each source's
//! cumulative weight is turned into the first arrow that reaches it (its
//! *boundary*) by a branch-free, vectorizable search, and a running maximum
//! over the chunk's slots turns those boundaries into source indices — the
//! same indices the walk picks, in fixed stack blocks with no heap
//! allocation ([`PartialSumResampler::plan_resize_into`]).

use crate::kernel::KernelBackend;
use mcl_num::math::ROUND_MAGIC_F64;

/// Sequential systematic resampling.
///
/// `weights` need not be normalized; `offset` is the single random draw in
/// `[0, 1)`. Returns, for every slot in the new particle set, the index of the
/// source particle to copy.
///
/// # Panics
///
/// Panics when `weights` is empty or `offset` is outside `[0, 1)`.
///
/// # Example
///
/// ```
/// use mcl_core::systematic_resample;
/// // One dominant particle captures (almost) every slot.
/// let picks = systematic_resample(&[0.001, 0.996, 0.001, 0.002], 0.5);
/// assert_eq!(picks.len(), 4);
/// assert!(picks.iter().filter(|&&i| i == 1).count() >= 3);
/// ```
pub fn systematic_resample(weights: &[f32], offset: f32) -> Vec<usize> {
    assert!(!weights.is_empty(), "cannot resample an empty particle set");
    assert!(
        (0.0..1.0).contains(&offset),
        "resampling offset must be in [0, 1)"
    );
    let n = weights.len();
    let total: f64 = weights.iter().map(|&w| f64::from(w.max(0.0))).sum();
    if total <= 0.0 {
        // Degenerate weights: keep the identity assignment.
        return (0..n).collect();
    }
    let step = total / n as f64;
    let mut indices = Vec::with_capacity(n);
    let mut cumulative = f64::from(weights[0].max(0.0));
    let mut source = 0usize;
    for arrow in 0..n {
        let position = (f64::from(offset) + arrow as f64) * step;
        while position >= cumulative && source + 1 < n {
            source += 1;
            cumulative += f64::from(weights[source].max(0.0));
        }
        indices.push(source);
    }
    indices
}

/// Multinomial resampling (each slot draws independently), used by the ablation
/// benchmarks as the baseline against the paper's systematic scheme.
///
/// `uniforms` must contain one uniform `[0, 1)` draw per output slot.
///
/// # Panics
///
/// Panics when `weights` is empty or `uniforms.len() != weights.len()`.
pub fn multinomial_resample(weights: &[f32], uniforms: &[f32]) -> Vec<usize> {
    assert!(!weights.is_empty(), "cannot resample an empty particle set");
    assert_eq!(
        weights.len(),
        uniforms.len(),
        "one uniform draw per output slot is required"
    );
    let total: f64 = weights.iter().map(|&w| f64::from(w.max(0.0))).sum();
    if total <= 0.0 {
        return (0..weights.len()).collect();
    }
    // Cumulative distribution, then binary search per draw.
    let mut cdf = Vec::with_capacity(weights.len());
    let mut acc = 0.0f64;
    for &w in weights {
        acc += f64::from(w.max(0.0)) / total;
        cdf.push(acc);
    }
    uniforms
        .iter()
        .map(|&u| {
            let target = f64::from(u.clamp(0.0, 1.0 - f32::EPSILON));
            match cdf.binary_search_by(|c| c.partial_cmp(&target).unwrap()) {
                Ok(i) | Err(i) => i.min(weights.len() - 1),
            }
        })
        .collect()
}

/// How the resampling work is split across worker cores (the paper's Fig. 4).
#[derive(Debug, Clone, PartialEq)]
pub struct ResamplePlan {
    /// For every output slot, the index of the source particle to copy.
    pub indices: Vec<usize>,
    /// Output-slot ranges produced by each worker: worker `w` writes
    /// `indices[ranges[w].0 .. ranges[w].1]`. Ranges are contiguous, disjoint and
    /// ordered, so every worker can write its slice without synchronization —
    /// the filter feeds them to
    /// [`ClusterLayout::for_each_range`](crate::parallel::ClusterLayout::for_each_range)
    /// driving the [`crate::kernel::resample_scatter`] kernel.
    pub worker_output_ranges: Vec<(usize, usize)>,
}

impl ResamplePlan {
    /// Number of new particles each worker produces — the load-balance figure the
    /// paper discusses ("we can not plan the workload distribution optimally").
    pub fn per_worker_draws(&self) -> Vec<usize> {
        self.worker_output_ranges
            .iter()
            .map(|(start, end)| end - start)
            .collect()
    }

    /// The largest number of draws any single worker has to perform — the
    /// critical path of the parallel resampling step.
    pub fn critical_path_draws(&self) -> usize {
        self.per_worker_draws().into_iter().max().unwrap_or(0)
    }
}

/// Parallel systematic resampling via per-chunk partial weight sums.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartialSumResampler {
    workers: usize,
}

impl PartialSumResampler {
    /// Creates a resampler that decomposes the wheel over `workers` cores.
    ///
    /// # Panics
    ///
    /// Panics when `workers` is zero.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "at least one worker is required");
        PartialSumResampler { workers }
    }

    /// Number of workers the plan is computed for.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Computes the resampling plan for the given (unnormalized) weights and the
    /// single random offset `r ∈ [0, 1)`.
    ///
    /// Worker `w` owns the source chunk `[w·⌈N/W⌉, …)`. From the partial sums of
    /// the chunks it derives which arrows of the wheel land inside its chunk;
    /// those arrows are exactly the output slots it fills. The concatenation of
    /// all workers' outputs equals the sequential [`systematic_resample`] result.
    ///
    /// # Panics
    ///
    /// Panics when `weights` is empty or `offset` is outside `[0, 1)`.
    pub fn plan(&self, weights: &[f32], offset: f32) -> ResamplePlan {
        let mut plan = ResamplePlan {
            indices: Vec::new(),
            worker_output_ranges: Vec::new(),
        };
        self.plan_into(weights, offset, &mut plan);
        plan
    }

    /// [`PartialSumResampler::plan_resize_into`] returning a fresh plan —
    /// `target_n` output slots drawn from `weights.len()` source particles,
    /// under the host's best backend ([`KernelBackend::detect`]).
    ///
    /// # Panics
    ///
    /// Panics when `weights` is empty, `target_n` is zero or `offset` is
    /// outside `[0, 1)`.
    pub fn plan_resize(&self, weights: &[f32], offset: f32, target_n: usize) -> ResamplePlan {
        let mut plan = ResamplePlan {
            indices: Vec::new(),
            worker_output_ranges: Vec::new(),
        };
        self.plan_resize_into(
            KernelBackend::detect(),
            weights,
            offset,
            target_n,
            &mut plan,
        );
        plan
    }

    /// Computes the plan into an existing [`ResamplePlan`], reusing its
    /// allocations, under the host's best backend
    /// ([`KernelBackend::detect`]); see
    /// [`PartialSumResampler::plan_resize_into`], which the filter calls
    /// every applied update without a heap allocation once its plan is warm.
    ///
    /// # Panics
    ///
    /// Panics when `weights` is empty or `offset` is outside `[0, 1)`.
    pub fn plan_into(&self, weights: &[f32], offset: f32, plan: &mut ResamplePlan) {
        self.plan_resize_into(
            KernelBackend::detect(),
            weights,
            offset,
            weights.len(),
            plan,
        );
    }

    /// Computes a plan with `target_n` output slots drawn from the
    /// `weights.len()` source particles — the wheel is walked with `target_n`
    /// equally spaced arrows instead of one per source, which is how the
    /// adaptive (KLD) filter grows or shrinks the population during the
    /// resampling pass itself. `target_n == weights.len()` reproduces
    /// [`PartialSumResampler::plan_into`] bit for bit.
    ///
    /// The source chunking (and with it each worker's partial-sum span) still
    /// depends only on the worker count and the *source* population, and every
    /// arrow's slot is a pure function of the weights and `offset`, so the plan
    /// stays schedule-independent: `worker_output_ranges` tile `0..target_n`
    /// contiguously and deterministically for any worker count.
    ///
    /// Arrow `i` sits at `(offset + i)·step` with `step = total / target_n`.
    /// Inside a chunk `start..end`, source `s` has the running cumulative
    /// weight `c_s` (the chunk's span start plus the weights up to and
    /// including `s`), and arrow `i` takes the source
    /// `start + #{s < end − 1 : c_s ≤ position(i)}` — the source the
    /// arrow-by-arrow walk `while position >= cumulative` stops on. Positions
    /// are monotone in `i`, so that count is `#{s : B_s ≤ i}`, where the
    /// boundary `B_s` is the first arrow whose position reaches `c_s`. The
    /// plan marks `s + 1` at slot `B_s`, and a running maximum over the
    /// chunk's slots turns the marks into source indices. The chunk's own
    /// arrows are `B(span start) .. B(span end)`, the same pairs the walk
    /// produced.
    ///
    /// Each boundary is found with no data-dependent branch: the seed
    /// `ceil(c/step − offset)` (clamped to the chunk's arrows), then one
    /// compare-and-step down and one up. One step each way is enough: for a
    /// finite `step > 0` positions are monotone in `i`, and the seed and
    /// every position carry a relative error of at most 2⁻⁵² on values of
    /// at most `target_n + 1`, far below one arrow, so the seed is within
    /// one of the exact index. Debug builds assert the bracket
    /// `position(B − 1) < c ≤ position(B)` on every boundary. The boundary
    /// pass runs under the `Avx2` body of `backend` where the host has it;
    /// every backend returns the same plan.
    ///
    /// A warm plan (one whose vectors already hold `target_n` indices and
    /// one range per worker) is computed without a heap allocation: sources
    /// are processed in fixed stack blocks.
    ///
    /// Weights are clamped at zero (NaN and negative weights count as zero).
    /// When the clamped total is zero or not finite (a `+∞` weight), the plan
    /// is the identity copy, cycling over the sources when `target_n > n`,
    /// with the output split evenly across the workers.
    ///
    /// # Panics
    ///
    /// Panics when `weights` is empty, `target_n` is zero or `offset` is
    /// outside `[0, 1)`.
    pub fn plan_resize_into(
        &self,
        backend: KernelBackend,
        weights: &[f32],
        offset: f32,
        target_n: usize,
        plan: &mut ResamplePlan,
    ) {
        assert!(!weights.is_empty(), "cannot resample an empty particle set");
        assert!(target_n > 0, "target population must be > 0");
        assert!(
            (0.0..1.0).contains(&offset),
            "resampling offset must be in [0, 1)"
        );
        let n = weights.len();
        let chunk = n.div_ceil(self.workers.min(n));
        // With the chunk size fixed, only this many chunks are non-empty (e.g.
        // 8 particles over 5 workers give 4 chunks of 2, not 5).
        let workers = n.div_ceil(chunk);
        let chunk_range = |w: usize| w * chunk..((w + 1) * chunk).min(n);
        plan.indices.clear();
        plan.indices.resize(target_n, 0);
        plan.worker_output_ranges.clear();

        // Step 1 (done during weight normalization on GAP9): the total over
        // the per-chunk partial sums.
        let total = (0..workers).fold(0.0, |acc, w| acc + chunk_mass(&weights[chunk_range(w)]));
        if total <= 0.0 || !total.is_finite() {
            // Degenerate weights: identity copy, cycling over the sources when
            // the output is larger than the input. Output slots are split into
            // the same even chunking the arrow walk would produce under
            // uniform weights (⌈target/W⌉ per worker; for target_n == n this
            // is exactly the source chunking, preserving the seed behaviour).
            for (i, slot) in plan.indices.iter_mut().enumerate() {
                *slot = i % n;
            }
            let out_chunk = target_n.div_ceil(workers);
            for w in 0..workers {
                let start = (w * out_chunk).min(target_n);
                let end = ((w + 1) * out_chunk).min(target_n);
                plan.worker_output_ranges.push((start, end));
            }
            return;
        }
        let wheel = Wheel {
            offset: f64::from(offset),
            step: total / target_n as f64,
            arrows: target_n,
        };

        // Step 2: every worker independently determines the arrows that fall
        // in its cumulative-weight span and fills only its own slots.
        let mut cumulative = [0.0f64; PLAN_BLOCK];
        let mut marks = [0usize; PLAN_BLOCK];
        let mut span_start = 0.0f64;
        for w in 0..workers {
            let sources = chunk_range(w);
            let (start, last) = (sources.start, sources.end - 1);
            // The first arrow at or past the span start: the predicate the
            // previous worker stopped on, since its span end is this span
            // start, so the ranges tile 0..target_n by construction.
            let first = wheel.boundary(span_start, 0);
            // The chunk's mass re-summed beside the running cumulative
            // weights, in the order step 1 summed it.
            let mut mass = 0.0f64;
            let mut running = span_start;
            for block_start in (start..last).step_by(PLAN_BLOCK) {
                let block = &weights[block_start..(block_start + PLAN_BLOCK).min(last)];
                let len = block.len();
                for (c, &x) in cumulative.iter_mut().zip(block) {
                    let x = clamped_mass(x);
                    mass += x;
                    running += x;
                    *c = running;
                }
                arrow_boundaries_with(
                    backend,
                    &wheel,
                    &cumulative[..len],
                    &mut marks[..len],
                    first,
                );
                // Source `s` takes over from arrow `B_s` on. Boundaries are
                // non-decreasing in `s`, so the last mark on a slot is the
                // largest; a mark at or past this chunk's last arrow is
                // smaller than any later chunk's first source, so the
                // running maximum there ignores it.
                for (s, &b) in (block_start..).zip(&marks[..len]) {
                    if let Some(slot) = plan.indices.get_mut(b) {
                        *slot = s + 1;
                    }
                }
            }
            mass += clamped_mass(weights[last]);
            let span_end = span_start + mass;
            span_start = span_end;
            let end = wheel.boundary(span_end, first);
            let mut source = start;
            for slot in &mut plan.indices[first..end] {
                source = source.max(*slot);
                *slot = source;
            }
            plan.worker_output_ranges.push((first, end));
        }
        // Float roundoff in the last span can leave the final arrows
        // unclaimed ((offset + i)·step landing a ULP above the prefix total);
        // charge them to the last worker so the ranges always tile the output.
        if let Some(last) = plan.worker_output_ranges.last_mut() {
            if last.1 < target_n {
                for arrow in last.1..target_n {
                    plan.indices[arrow] = n - 1;
                }
                last.1 = target_n;
            }
        }
    }
}

/// Sources per stack block of the plan's boundary pass.
const PLAN_BLOCK: usize = 256;

/// A weight as wheel mass: `f64`, clamped at zero (NaN counts as zero).
#[inline]
fn clamped_mass(w: f32) -> f64 {
    f64::from(w.max(0.0))
}

/// The clamped mass of one chunk, summed in source order.
fn chunk_mass(weights: &[f32]) -> f64 {
    weights.iter().fold(0.0, |acc, &w| acc + clamped_mass(w))
}

/// The arrows of one resampling wheel: arrow `i` sits at
/// `(offset + i)·step`, for `i` in `0..arrows`.
pub(crate) struct Wheel {
    offset: f64,
    step: f64,
    arrows: usize,
}

impl Wheel {
    /// Position of arrow `i`, given as an integer-valued `f64`.
    #[inline(always)]
    fn position(&self, i: f64) -> f64 {
        (self.offset + i) * self.step
    }

    /// The first arrow in `lo..=hi` whose position is `≥ c`, or `hi` (the
    /// arrow count) when none is; `lo` and `hi` are integer-valued `f64`s.
    ///
    /// The seed is `ceil(c/step − offset)`, clamped to `[lo, hi]`, taken
    /// with the [`ROUND_MAGIC_F64`] add (`f64::ceil` is a libm call on
    /// baseline x86-64) and a compare. For a finite `step > 0` the
    /// positions are monotone in `i`, and the seed and every position carry
    /// a relative error of at most 2⁻⁵² on values `≤ arrows + 1`, far below
    /// one arrow, so the seed is within one of the exact index: one
    /// straight-line compare-and-step each way lands on it. The steps are
    /// selects, not `while` loops: with loops the whole plan measured 1.2–1.6×
    /// slower on weight vectors captured from the paper workload.
    #[inline(always)]
    fn boundary_f64(&self, c: f64, lo: f64, hi: f64) -> f64 {
        let x = c / self.step - self.offset;
        let r = (x + ROUND_MAGIC_F64) - ROUND_MAGIC_F64;
        let seed = if r < x { r + 1.0 } else { r };
        let g = if seed < lo { lo } else { seed };
        let g = if g > hi { hi } else { g };
        let g = if (g > lo) & (self.position(g - 1.0) >= c) {
            g - 1.0
        } else {
            g
        };
        let g = if (g < hi) & (self.position(g) < c) {
            g + 1.0
        } else {
            g
        };
        debug_assert!(
            (g == lo || self.position(g - 1.0) < c) && (g == hi || c <= self.position(g)),
            "arrow boundary {g} of {c} outside its bracket"
        );
        g
    }

    /// [`Wheel::boundary_f64`] from arrow `lo` up to the arrow count, as an
    /// index.
    #[inline(always)]
    fn boundary(&self, c: f64, lo: usize) -> usize {
        as_index(self.boundary_f64(c, lo as f64, self.arrows as f64))
    }
}

/// An integer-valued `f64` in `[0, 2⁵¹)` as an index, through the
/// [`ROUND_MAGIC_F64`] bits (exact, and vectorizable without AVX-512).
#[inline(always)]
fn as_index(g: f64) -> usize {
    (g + ROUND_MAGIC_F64)
        .to_bits()
        .wrapping_sub(ROUND_MAGIC_F64.to_bits()) as usize
}

/// The boundary pass of one block: `marks[k]` is the first arrow in
/// `lo..=wheel.arrows` whose position reaches `cumulative[k]`. Branch-free,
/// so it vectorizes; the AVX2 body (`simd::arrow_boundaries`) compiles this
/// same function with the wider registers.
#[inline(always)]
pub(crate) fn arrow_boundaries(wheel: &Wheel, cumulative: &[f64], marks: &mut [usize], lo: usize) {
    let (lo, hi) = (lo as f64, wheel.arrows as f64);
    for (mark, &c) in marks.iter_mut().zip(cumulative) {
        *mark = as_index(wheel.boundary_f64(c, lo, hi));
    }
}

/// [`arrow_boundaries`] under the body of the selected [`KernelBackend`]:
/// the AVX2 compilation for `Avx2` where the host has it, the portable one
/// otherwise. Both return the same marks.
fn arrow_boundaries_with(
    backend: KernelBackend,
    wheel: &Wheel,
    cumulative: &[f64],
    marks: &mut [usize],
    lo: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if backend == KernelBackend::Avx2 && crate::simd::available() {
        return crate::simd::arrow_boundaries(wheel, cumulative, marks, lo);
    }
    let _ = backend;
    arrow_boundaries(wheel, cumulative, marks, lo);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcl_num::F16;
    use proptest::prelude::*;

    fn weights_from_pattern(n: usize, seed: u64) -> Vec<f32> {
        // Deterministic pseudo-random positive weights.
        let mut state = seed.wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f32 / (1u64 << 31) as f32) + 1e-3
            })
            .collect()
    }

    #[test]
    fn systematic_preserves_count_and_orders_sources() {
        let weights = weights_from_pattern(100, 3);
        let picks = systematic_resample(&weights, 0.37);
        assert_eq!(picks.len(), 100);
        // Systematic resampling visits sources in non-decreasing order.
        for pair in picks.windows(2) {
            assert!(pair[0] <= pair[1]);
        }
        // Every index is valid.
        assert!(picks.iter().all(|&i| i < 100));
    }

    #[test]
    fn heavy_particle_is_copied_proportionally() {
        let mut weights = vec![0.5f32 / 999.0; 1000];
        weights[500] = 0.5;
        let picks = systematic_resample(&weights, 0.123);
        let copies = picks.iter().filter(|&&i| i == 500).count();
        // Half the total weight → roughly half the slots (systematic resampling
        // guarantees within ±1 of the expectation).
        assert!((499..=501).contains(&copies), "copies = {copies}");
    }

    #[test]
    fn uniform_weights_reproduce_every_particle_once() {
        let weights = vec![1.0f32; 64];
        let picks = systematic_resample(&weights, 0.5);
        let mut counts = vec![0usize; 64];
        for &i in &picks {
            counts[i] += 1;
        }
        assert!(counts.iter().all(|&c| c == 1));
    }

    #[test]
    fn zero_weights_fall_back_to_identity() {
        let picks = systematic_resample(&[0.0, 0.0, 0.0], 0.2);
        assert_eq!(picks, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_weights_panic() {
        systematic_resample(&[], 0.1);
    }

    #[test]
    #[should_panic(expected = "offset")]
    fn offset_out_of_range_panics() {
        systematic_resample(&[1.0], 1.0);
    }

    #[test]
    fn multinomial_uses_one_draw_per_slot() {
        let weights = [0.1f32, 0.7, 0.2];
        let picks = multinomial_resample(&weights, &[0.05, 0.5, 0.95]);
        assert_eq!(picks, vec![0, 1, 2]);
    }

    #[test]
    fn multinomial_degenerate_weights_fall_back_to_identity() {
        assert_eq!(multinomial_resample(&[0.0, 0.0], &[0.3, 0.9]), vec![0, 1]);
    }

    #[test]
    fn partial_sum_plan_matches_sequential_systematic() {
        for &n in &[8usize, 64, 100, 1024, 4096] {
            for &workers in &[1usize, 2, 3, 8] {
                for &offset in &[0.0f32, 0.25, 0.73, 0.999] {
                    let weights = weights_from_pattern(n, n as u64 + workers as u64);
                    let sequential = systematic_resample(&weights, offset);
                    let plan = PartialSumResampler::new(workers).plan(&weights, offset);
                    assert_eq!(
                        plan.indices, sequential,
                        "mismatch for n={n} workers={workers} offset={offset}"
                    );
                }
            }
        }
    }

    #[test]
    fn worker_output_ranges_partition_the_output() {
        let weights = weights_from_pattern(1000, 5);
        let plan = PartialSumResampler::new(8).plan(&weights, 0.4);
        let mut covered = 0usize;
        for (i, (start, end)) in plan.worker_output_ranges.iter().enumerate() {
            assert!(start <= end, "worker {i} range is inverted");
            assert_eq!(*start, covered, "worker {i} range is not contiguous");
            covered = *end;
        }
        assert_eq!(covered, 1000);
        assert_eq!(plan.per_worker_draws().iter().sum::<usize>(), 1000);
        assert!(plan.critical_path_draws() >= 1000 / 8);
    }

    #[test]
    fn skewed_weights_give_an_unbalanced_plan() {
        // All the weight in the first chunk: worker 0 draws every new particle,
        // which is exactly the load imbalance the paper's Fig. 10 shows for the
        // resampling step.
        let mut weights = vec![1e-7f32; 800];
        for w in weights.iter_mut().take(100) {
            *w = 1.0;
        }
        let plan = PartialSumResampler::new(8).plan(&weights, 0.5);
        let draws = plan.per_worker_draws();
        assert_eq!(draws.iter().sum::<usize>(), 800);
        assert!(draws[0] > 700, "first worker should carry almost all draws");
        assert_eq!(plan.critical_path_draws(), draws[0]);
    }

    #[test]
    fn plan_into_reuses_allocations_and_matches_plan() {
        let resampler = PartialSumResampler::new(8);
        let mut reused = ResamplePlan {
            indices: Vec::new(),
            worker_output_ranges: Vec::new(),
        };
        // Successive calls with growing, shrinking and degenerate inputs must
        // match fresh plans exactly — no stale state may survive the reuse.
        for &(n, offset) in &[(100usize, 0.4f32), (1000, 0.73), (64, 0.1), (512, 0.999)] {
            let weights = weights_from_pattern(n, n as u64);
            resampler.plan_into(&weights, offset, &mut reused);
            assert_eq!(reused, resampler.plan(&weights, offset), "n={n}");
        }
        resampler.plan_into(&[0.0; 16], 0.3, &mut reused);
        assert_eq!(reused.indices, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn more_workers_than_particles_is_handled() {
        let weights = weights_from_pattern(3, 9);
        let plan = PartialSumResampler::new(8).plan(&weights, 0.1);
        assert_eq!(plan.indices.len(), 3);
        assert_eq!(plan.indices, systematic_resample(&weights, 0.1));
    }

    #[test]
    fn zero_total_weight_plan_is_identity() {
        let plan = PartialSumResampler::new(4).plan(&[0.0; 16], 0.3);
        assert_eq!(plan.indices, (0..16).collect::<Vec<_>>());
        assert_eq!(plan.per_worker_draws().iter().sum::<usize>(), 16);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        PartialSumResampler::new(0);
    }

    /// Sequential reference for a resized wheel: `target_n` arrows over the
    /// cumulative weights of `weights.len()` sources.
    fn sequential_resize(weights: &[f32], offset: f32, target_n: usize) -> Vec<usize> {
        let n = weights.len();
        let total: f64 = weights.iter().map(|&w| f64::from(w.max(0.0))).sum();
        if total <= 0.0 {
            return (0..target_n).map(|i| i % n).collect();
        }
        let step = total / target_n as f64;
        let mut indices = Vec::with_capacity(target_n);
        let mut cumulative = f64::from(weights[0].max(0.0));
        let mut source = 0usize;
        for arrow in 0..target_n {
            let position = (f64::from(offset) + arrow as f64) * step;
            while position >= cumulative && source + 1 < n {
                source += 1;
                cumulative += f64::from(weights[source].max(0.0));
            }
            indices.push(source);
        }
        indices
    }

    #[test]
    fn resized_plans_match_the_sequential_wheel_for_grow_and_shrink() {
        for &n in &[8usize, 100, 1024] {
            for &target in &[1usize, 3, 50, 100, 197, 1024, 2500] {
                for &workers in &[1usize, 3, 8] {
                    let weights = weights_from_pattern(n, n as u64 + target as u64);
                    let plan =
                        PartialSumResampler::new(workers).plan_resize(&weights, 0.37, target);
                    assert_eq!(
                        plan.indices,
                        sequential_resize(&weights, 0.37, target),
                        "n={n} target={target} workers={workers}"
                    );
                    // Ranges tile 0..target contiguously.
                    let mut covered = 0usize;
                    for &(start, end) in &plan.worker_output_ranges {
                        assert!(start <= end);
                        assert_eq!(start, covered);
                        covered = end;
                    }
                    assert_eq!(covered, target);
                    assert!(plan.indices.iter().all(|&i| i < n));
                }
            }
        }
    }

    #[test]
    fn resized_plan_at_identity_target_matches_plan_into_exactly() {
        // target_n == n must reproduce the fixed-size plan bit for bit — this
        // is what keeps the adaptive-off filter on the pinned golden traces.
        for &n in &[8usize, 100, 1024] {
            for &workers in &[1usize, 3, 8] {
                let weights = weights_from_pattern(n, n as u64);
                let fixed = PartialSumResampler::new(workers).plan(&weights, 0.73);
                let resized = PartialSumResampler::new(workers).plan_resize(&weights, 0.73, n);
                assert_eq!(fixed, resized, "n={n} workers={workers}");
            }
        }
    }

    #[test]
    fn resized_heavy_particle_keeps_its_weight_share() {
        let mut weights = vec![0.5f32 / 999.0; 1000];
        weights[500] = 0.5;
        // Shrink to 200: the heavy particle still owns ~half the slots.
        let plan = PartialSumResampler::new(8).plan_resize(&weights, 0.123, 200);
        let copies = plan.indices.iter().filter(|&&i| i == 500).count();
        assert!((99..=101).contains(&copies), "copies = {copies}");
        // Grow to 4000: same share at the larger population.
        let plan = PartialSumResampler::new(8).plan_resize(&weights, 0.123, 4000);
        let copies = plan.indices.iter().filter(|&&i| i == 500).count();
        assert!((1999..=2001).contains(&copies), "copies = {copies}");
    }

    #[test]
    fn degenerate_total_stays_correct_when_resizing() {
        // Shrink: identity prefix.
        let plan = PartialSumResampler::new(4).plan_resize(&[0.0; 16], 0.3, 5);
        assert_eq!(plan.indices, vec![0, 1, 2, 3, 4]);
        assert_eq!(plan.per_worker_draws().iter().sum::<usize>(), 5);
        // Grow: identity cycles over the sources (never out of bounds).
        let plan = PartialSumResampler::new(4).plan_resize(&[f32::NAN.min(0.0); 3], 0.3, 8);
        assert_eq!(plan.indices, vec![0, 1, 2, 0, 1, 2, 0, 1]);
        let mut covered = 0usize;
        for &(start, end) in &plan.worker_output_ranges {
            assert!(start <= end);
            assert_eq!(start, covered);
            covered = end;
        }
        assert_eq!(covered, 8);
        // Negative-only weights clamp to zero and take the same fallback.
        let plan = PartialSumResampler::new(2).plan_resize(&[-1.0, -2.0], 0.0, 4);
        assert_eq!(plan.indices, vec![0, 1, 0, 1]);
    }

    #[test]
    fn degenerate_identity_target_keeps_the_seed_ranges() {
        // At target_n == n the degenerate fallback must keep producing the
        // source chunking (the pre-resize behaviour).
        for &(n, workers) in &[(16usize, 4usize), (8, 5), (10, 3), (3, 8)] {
            let weights = vec![0.0f32; n];
            let plan = PartialSumResampler::new(workers).plan_resize(&weights, 0.3, n);
            assert_eq!(plan.indices, (0..n).collect::<Vec<_>>());
            let chunk = n.div_ceil(workers.min(n));
            let effective = n.div_ceil(chunk);
            let expected: Vec<(usize, usize)> = (0..effective)
                .map(|w| (w * chunk, ((w + 1) * chunk).min(n)))
                .collect();
            assert_eq!(
                plan.worker_output_ranges, expected,
                "n={n} workers={workers}"
            );
        }
    }

    /// Asserts that a plan's worker ranges tile `0..target` contiguously.
    fn assert_tiles(plan: &ResamplePlan, target: usize, what: &str) {
        let mut covered = 0usize;
        for &(start, end) in &plan.worker_output_ranges {
            assert!(
                start <= end,
                "{what}: inverted range in {:?}",
                plan.worker_output_ranges
            );
            assert_eq!(
                start, covered,
                "{what}: gap or overlap in {:?}",
                plan.worker_output_ranges
            );
            covered = end;
        }
        assert_eq!(covered, target, "{what}: ranges stop short");
    }

    #[test]
    fn resized_ranges_tile_when_division_and_multiplication_round_apart() {
        // Uniform binary16 weights renormalized in f32 — what the fp16
        // filter hands the resampler after a resampling pass. With offset 0
        // the wheel positions land exactly on the chunk boundaries, where
        // `ceil(span_start / step)` and the stop predicate
        // `(offset + i)·step >= span_end` used to disagree by one arrow: the
        // first worker stopped before arrow 15, the second started at 16,
        // and slot 15 kept a stale index (ranges `[(0, 15), (16, 30)]`).
        for prev in [10usize, 20, 1000, 4096] {
            let raw = [F16::from_f32(1.0 / prev as f32).to_f32(); 10];
            let sum: f32 = raw.iter().sum();
            let weights: Vec<f32> = raw.iter().map(|w| w / sum).collect();
            let plan = PartialSumResampler::new(2).plan_resize(&weights, 0.0, 30);
            assert_tiles(&plan, 30, &format!("prev={prev}"));
            assert_eq!(
                plan.indices,
                sequential_resize(&weights, 0.0, 30),
                "prev={prev}"
            );
        }
        // A broader sweep over the same weight shape.
        for n in [10usize, 100, 197, 1024] {
            let raw = vec![F16::from_f32(1.0 / n as f32).to_f32(); n];
            let sum: f32 = raw.iter().sum();
            let weights: Vec<f32> = raw.iter().map(|w| w / sum).collect();
            for target in [n / 2, n - 1, n + 1, 2 * n, 3 * n] {
                for workers in 2..=8 {
                    for offset in [0.0f32, 0.5, 0.25] {
                        let plan =
                            PartialSumResampler::new(workers).plan_resize(&weights, offset, target);
                        let what =
                            format!("n={n} target={target} workers={workers} offset={offset}");
                        assert_tiles(&plan, target, &what);
                        assert_eq!(
                            plan.indices,
                            sequential_resize(&weights, offset, target),
                            "{what}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "target population")]
    fn zero_target_panics() {
        PartialSumResampler::new(2).plan_resize(&[1.0, 1.0], 0.1, 0);
    }

    /// The arrow-by-arrow partial-sum walk the boundary plan replaced,
    /// frozen as the reference the plan must reproduce on finite weights.
    fn walked_plan(workers: usize, weights: &[f32], offset: f32, target_n: usize) -> ResamplePlan {
        let n = weights.len();
        let chunk = n.div_ceil(workers.min(n));
        let workers = n.div_ceil(chunk);
        let mut plan = ResamplePlan {
            indices: vec![0; target_n],
            worker_output_ranges: Vec::new(),
        };
        let chunk_sums: Vec<f64> = (0..workers)
            .map(|w| {
                weights[w * chunk..((w + 1) * chunk).min(n)]
                    .iter()
                    .map(|&x| f64::from(x.max(0.0)))
                    .sum()
            })
            .collect();
        let total: f64 = chunk_sums.iter().sum();
        if total <= 0.0 {
            plan.indices = (0..target_n).map(|i| i % n).collect();
            let out_chunk = target_n.div_ceil(workers);
            plan.worker_output_ranges = (0..workers)
                .map(|w| {
                    (
                        (w * out_chunk).min(target_n),
                        ((w + 1) * out_chunk).min(target_n),
                    )
                })
                .collect();
            return plan;
        }
        let step = total / target_n as f64;
        let position_of = |i: usize| (f64::from(offset) + i as f64) * step;
        let mut prefix = 0.0f64;
        for (w, &chunk_sum) in chunk_sums.iter().enumerate() {
            let start = w * chunk;
            let end = ((w + 1) * chunk).min(n);
            let span_start = prefix;
            let span_end = prefix + chunk_sum;
            prefix = span_end;
            let mut first_arrow =
                ((span_start / step) - f64::from(offset)).ceil().max(0.0) as usize;
            while first_arrow > 0 && position_of(first_arrow - 1) >= span_start {
                first_arrow -= 1;
            }
            while first_arrow < target_n && position_of(first_arrow) < span_start {
                first_arrow += 1;
            }
            let mut arrow = first_arrow;
            let mut cumulative = span_start + f64::from(weights[start].max(0.0));
            let mut source = start;
            let out_start = arrow.min(target_n);
            while arrow < target_n {
                let position = position_of(arrow);
                if position >= span_end {
                    break;
                }
                while position >= cumulative && source + 1 < end {
                    source += 1;
                    cumulative += f64::from(weights[source].max(0.0));
                }
                plan.indices[arrow] = source;
                arrow += 1;
            }
            plan.worker_output_ranges
                .push((out_start, arrow.min(target_n).max(out_start)));
        }
        if let Some(last) = plan.worker_output_ranges.last_mut() {
            if last.1 < target_n {
                for arrow in last.1..target_n {
                    plan.indices[arrow] = n - 1;
                }
                last.1 = target_n;
            }
        }
        plan
    }

    /// A finite test weight: `kind` picks one of the shapes the boundary
    /// search must survive (zeros of both signs, NaN, −∞, negatives,
    /// subnormals, huge values), `bits` and `u` fill it in.
    fn finite_weight(kind: u8, bits: u32, u: f32) -> f32 {
        match kind {
            0 => 0.0,
            1 => -0.0,
            2 => f32::NAN,
            3 => f32::NEG_INFINITY,
            4 => -u,
            5 => f32::from_bits(bits & 0x007F_FFFF),
            6 => 1e30,
            7 => f32::MAX,
            8 => u * 1e-20,
            _ => u,
        }
    }

    /// Builds a weight vector of one degenerate or random family.
    fn weight_family(family: u8, raw: &[(u8, u32, f32)]) -> Vec<f32> {
        match family {
            // All zero (the identity fallback).
            0 => vec![0.0; raw.len()],
            // One spike over tiny or zero weights.
            1 => {
                let spike = raw[0].1 as usize % raw.len();
                (0..raw.len())
                    .map(|i| if i == spike { 1.0 } else { raw[i].2 * 1e-9 })
                    .collect()
            }
            // Uniform binary16 weights renormalized in f32 (ties on the
            // chunk boundaries).
            2 => {
                let w = F16::from_f32(1.0 / raw.len() as f32).to_f32();
                let sum: f32 = (0..raw.len()).map(|_| w).sum();
                vec![w / sum; raw.len()]
            }
            // Mostly ordinary weights with the hostile kinds mixed in.
            3 => raw
                .iter()
                .map(|&(kind, bits, u)| finite_weight(kind % 20, bits, u))
                .collect(),
            // Every hostile kind equally often.
            _ => raw
                .iter()
                .map(|&(kind, bits, u)| finite_weight(kind % 10, bits, u))
                .collect(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3000))]

        /// The boundary plan returns exactly the walk's indices and worker
        /// ranges on every finite input, under every backend.
        #[test]
        fn boundary_plan_matches_the_frozen_walk(
            raw in prop::collection::vec((0u8..20, 0u32..u32::MAX, 0.0f32..1.0), 1..300),
            family in 0u8..6,
            target_pick in 0usize..1_000_000,
            workers in 1usize..=8,
            offset_pick in (0u8..4, 0.0f32..1.0),
        ) {
            let weights = weight_family(family, &raw);
            let n = weights.len();
            // Whole multiples of the source count put arrows exactly on
            // chunk and source boundaries, as do the exact offsets.
            let target_n = match target_pick % 4 {
                0 => n,
                1 => n * (2 + target_pick % 2),
                2 => (n / 2).max(1),
                _ => 1 + target_pick % (2 * n + 1),
            };
            let offset = match offset_pick.0 {
                0 => 0.0,
                1 => 0.5,
                2 => 0.25,
                _ => offset_pick.1,
            };
            let expected = walked_plan(workers, &weights, offset, target_n);
            let resampler = PartialSumResampler::new(workers);
            let mut plan = resampler.plan(&[1.0], 0.0);
            for backend in KernelBackend::ALL {
                resampler.plan_resize_into(backend, &weights, offset, target_n, &mut plan);
                prop_assert_eq!(
                    &plan, &expected,
                    "backend {:?}, n {}, target {}, workers {}, offset {}",
                    backend, weights.len(), target_n, workers, offset
                );
            }
        }

        /// On arbitrary `f32` bit patterns (±∞ and NaN included) the worker
        /// ranges tile `0..target_n` and every index names a source.
        #[test]
        fn plan_ranges_tile_on_arbitrary_bit_patterns(
            bits in prop::collection::vec(0u32..u32::MAX, 1..200),
            specials in prop::collection::vec(0u8..8, 1..200),
            target_pick in 0usize..1_000_000,
            workers in 1usize..=8,
            offset in 0.0f32..1.0,
        ) {
            let weights: Vec<f32> = bits
                .iter()
                .zip(specials.iter().cycle())
                .map(|(&b, &special)| match special {
                    0 => f32::INFINITY,
                    1 => f32::NAN,
                    _ => f32::from_bits(b),
                })
                .collect();
            let target_n = 1 + target_pick % (2 * weights.len() + 1);
            for backend in KernelBackend::ALL {
                let mut plan = PartialSumResampler::new(workers).plan(&[1.0], 0.0);
                PartialSumResampler::new(workers)
                    .plan_resize_into(backend, &weights, offset, target_n, &mut plan);
                let mut covered = 0usize;
                for &(start, end) in &plan.worker_output_ranges {
                    prop_assert!(start == covered && start <= end,
                        "ranges {:?} do not tile 0..{}", plan.worker_output_ranges, target_n);
                    covered = end;
                }
                prop_assert_eq!(covered, target_n);
                prop_assert_eq!(plan.indices.len(), target_n);
                prop_assert!(plan.indices.iter().all(|&i| i < weights.len()));
            }
        }
    }

    #[test]
    fn an_infinite_weight_takes_the_identity_fallback() {
        // The walk handed every arrow to the last source, not the infinite
        // one.
        let plan = PartialSumResampler::new(1).plan(&[1.0, f32::INFINITY, 1.0, 1.0], 0.5);
        assert_eq!(plan.indices, vec![0, 1, 2, 3]);
        assert_eq!(plan.worker_output_ranges, vec![(0, 4)]);
        // The walk's ranges overlapped here ([(0, 1), (0, 1), (0, 6)]).
        let weights = [1.0, 1.0, 1.0, 1.0, 1.0, f32::INFINITY];
        let plan = PartialSumResampler::new(3).plan(&weights, 0.0);
        assert_eq!(plan.indices, (0..6).collect::<Vec<_>>());
        assert_eq!(plan.worker_output_ranges, vec![(0, 2), (2, 4), (4, 6)]);
    }
}
