//! Particles and the double-buffered, structure-of-arrays particle storage.
//!
//! A particle is a pose hypothesis plus an importance weight. The paper stores
//! four numbers per particle (x, y, yaw, weight) in either full (`f32`, 16 B) or
//! half precision (binary16, 8 B), and keeps **two** buffers because systematic
//! resampling reads the old particle set while writing the new one — hence
//! 32 B/particle (fp32) or 16 B/particle (fp16) in the paper's memory accounting,
//! which [`ParticleSet::memory_bytes`] reproduces.
//!
//! # Memory layout
//!
//! The population is stored as a **structure of arrays** ([`ParticleBuffer`]):
//! four contiguous arrays `x[]`, `y[]`, `theta[]`, `weight[]` instead of one
//! array of 4-field structs. This is how the GAP9 firmware lays the particles
//! out in L1/L2: each of the four MCL kernels ([`crate::kernel`]) streams
//! through exactly the components it needs (the resampler's weight walk touches
//! only `weight[]`, one cache line per 16 fp32 weights instead of one per 4
//! AoS particles), and the layout is what SIMD/fp16-vectorization PRs need.
//! The byte count is identical to the AoS layout — Table I's accounting
//! (4 scalars × 2 buffers) is preserved, only the ordering changes.
//!
//! [`Particle`] remains as a point-of-use value type: kernels and tests gather
//! one particle out of the arrays, operate on it, and scatter it back.

use crate::config::MclError;
use crate::rng::CounterRng;
use mcl_gridmap::{CellState, OccupancyGrid, Pose2};
use mcl_num::Scalar;

/// Particles per stack block of the serial passes that read stored
/// components as `f32` ([`for_each_widened_block`]): 1 KiB per component,
/// whatever the population.
const WIDEN_BLOCK: usize = 256;

/// Hands equal-length stored component arrays to `f` as `f32`, in storage
/// order: the arrays themselves at `f32` storage, otherwise widened with
/// [`Scalar::widen`] one [`WIDEN_BLOCK`] at a time into stack buffers, so a
/// serial pass converts in bulk without allocating. `f` sees every particle
/// exactly once and in index order, so a fold through it associates exactly
/// as a per-element loop.
pub(crate) fn for_each_widened_block<S: Scalar, const N: usize>(
    components: [&[S]; N],
    mut f: impl FnMut([&[f32]; N]),
) {
    let len = components.first().map_or(0, |c| c.len());
    debug_assert!(components.iter().all(|c| c.len() == len));
    let direct = components.map(S::f32_slice);
    if direct.iter().all(Option::is_some) {
        f(direct.map(|d| d.expect("checked above")));
        return;
    }
    let mut blocks = [[0.0f32; WIDEN_BLOCK]; N];
    let mut start = 0;
    while start < len {
        let end = (start + WIDEN_BLOCK).min(len);
        for (block, component) in blocks.iter_mut().zip(components) {
            S::widen(&component[start..end], &mut block[..end - start]);
        }
        f(core::array::from_fn(|k| &blocks[k][..end - start]));
        start = end;
    }
}

/// Effective sample size `(Σ wᵢ)² / Σ wᵢ²` of weights read as `f32`, folded
/// in index order: the one ESS fold behind
/// [`ParticleSet::effective_sample_size`] and the filter's ESS gate. `0.0`
/// for a collapsed or non-finite set.
pub(crate) fn effective_sample_size_of(weights: impl IntoIterator<Item = f32>) -> f32 {
    let (sum, sum_sq) = weights
        .into_iter()
        .fold((0.0f32, 0.0f32), |(sum, sum_sq), w| {
            (sum + w, sum_sq + w * w)
        });
    if !(sum.is_finite() && sum_sq.is_finite()) || sum_sq <= f32::MIN_POSITIVE {
        0.0
    } else {
        (sum * sum) / sum_sq
    }
}

/// Stored weights read as `f32`: the array itself at fp32 storage, otherwise
/// widened with [`Scalar::widen`] into `scratch` (whose allocation is reused).
pub(crate) fn weights_as_f32<'a, S: Scalar>(
    stored: &'a [S],
    scratch: &'a mut Vec<f32>,
) -> &'a [f32] {
    match S::f32_slice(stored) {
        Some(direct) => direct,
        None => {
            scratch.clear();
            scratch.resize(stored.len(), 0.0);
            S::widen(stored, scratch);
            scratch
        }
    }
}

/// One pose hypothesis with an importance weight, stored at precision `S`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Particle<S: Scalar> {
    /// X position, metres.
    pub x: S,
    /// Y position, metres.
    pub y: S,
    /// Yaw angle, radians in `[0, 2π)`.
    pub theta: S,
    /// Importance weight (normalized across the set after every correction).
    pub weight: S,
}

impl<S: Scalar> Particle<S> {
    /// Creates a particle from an `f32` pose and weight, rounding to `S`.
    pub fn from_pose(pose: &Pose2, weight: f32) -> Self {
        Particle {
            x: S::from_f32(pose.x),
            y: S::from_f32(pose.y),
            theta: S::from_f32(pose.theta),
            weight: S::from_f32(weight),
        }
    }

    /// The particle's pose in `f32`.
    pub fn pose(&self) -> Pose2 {
        Pose2::new(self.x.to_f32(), self.y.to_f32(), self.theta.to_f32())
    }

    /// The particle's weight in `f32`.
    pub fn weight_f32(&self) -> f32 {
        self.weight.to_f32()
    }

    /// Bytes one particle occupies at this precision (4 stored scalars).
    pub const fn bytes() -> usize {
        4 * S::BYTES
    }
}

/// Structure-of-arrays storage for one particle generation: four contiguous
/// component arrays of equal length.
#[derive(Debug, Clone, PartialEq)]
pub struct ParticleBuffer<S: Scalar> {
    x: Vec<S>,
    y: Vec<S>,
    theta: Vec<S>,
    weight: Vec<S>,
}

impl<S: Scalar> Default for ParticleBuffer<S> {
    fn default() -> Self {
        ParticleBuffer::with_capacity(0)
    }
}

impl<S: Scalar> ParticleBuffer<S> {
    /// An empty buffer with capacity for `n` particles per component.
    pub fn with_capacity(n: usize) -> Self {
        ParticleBuffer {
            x: Vec::with_capacity(n),
            y: Vec::with_capacity(n),
            theta: Vec::with_capacity(n),
            weight: Vec::with_capacity(n),
        }
    }

    /// Number of particles in the buffer.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// Returns `true` when the buffer holds no particles.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Removes all particles, keeping the allocations.
    pub fn clear(&mut self) {
        self.x.clear();
        self.y.clear();
        self.theta.clear();
        self.weight.clear();
    }

    /// Appends one particle.
    pub fn push(&mut self, p: Particle<S>) {
        self.x.push(p.x);
        self.y.push(p.y);
        self.theta.push(p.theta);
        self.weight.push(p.weight);
    }

    /// Gathers particle `i` out of the four arrays.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds.
    pub fn get(&self, i: usize) -> Particle<S> {
        Particle {
            x: self.x[i],
            y: self.y[i],
            theta: self.theta[i],
            weight: self.weight[i],
        }
    }

    /// Scatters `p` into slot `i` of the four arrays.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds.
    pub fn set(&mut self, i: usize, p: Particle<S>) {
        self.x[i] = p.x;
        self.y[i] = p.y;
        self.theta[i] = p.theta;
        self.weight[i] = p.weight;
    }

    /// The pose of particle `i` in `f32`.
    pub fn pose(&self, i: usize) -> Pose2 {
        self.get(i).pose()
    }

    /// The `x` component array.
    pub fn x(&self) -> &[S] {
        &self.x
    }

    /// The `y` component array.
    pub fn y(&self) -> &[S] {
        &self.y
    }

    /// The `theta` component array.
    pub fn theta(&self) -> &[S] {
        &self.theta
    }

    /// The `weight` component array.
    pub fn weight(&self) -> &[S] {
        &self.weight
    }

    /// Mutable access to the `weight` component array.
    pub fn weight_mut(&mut self) -> &mut [S] {
        &mut self.weight
    }

    /// A shared view over all four component arrays.
    pub fn as_slice(&self) -> ParticleSlice<'_, S> {
        ParticleSlice {
            x: &self.x,
            y: &self.y,
            theta: &self.theta,
            weight: &self.weight,
        }
    }

    /// A mutable view over all four component arrays.
    pub fn as_mut_slice(&mut self) -> ParticleSliceMut<'_, S> {
        ParticleSliceMut {
            x: &mut self.x,
            y: &mut self.y,
            theta: &mut self.theta,
            weight: &mut self.weight,
        }
    }

    /// Iterates over the particles as gathered [`Particle`] values.
    pub fn iter(&self) -> impl Iterator<Item = Particle<S>> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Gathers the whole buffer into an array-of-structs `Vec` (tests, metrics
    /// and compatibility with the AoS [`Particle`] API).
    pub fn to_particles(&self) -> Vec<Particle<S>> {
        self.iter().collect()
    }

    /// Resizes the buffer to `n` particles. New slots are zero-filled — the
    /// adaptive resampling path resizes the scratch generation to the target
    /// population before the scatter kernels overwrite every slot.
    pub fn resize(&mut self, n: usize) {
        let zero = S::from_f32(0.0);
        self.x.resize(n, zero);
        self.y.resize(n, zero);
        self.theta.resize(n, zero);
        self.weight.resize(n, zero);
    }

    /// Bytes of particle storage this buffer accounts for: 4 scalars per
    /// particle, counting reserved capacity like the firmware's static arrays.
    pub fn storage_bytes(&self) -> usize {
        self.x.capacity().max(self.len()) * Particle::<S>::bytes()
    }
}

impl<S: Scalar> FromIterator<Particle<S>> for ParticleBuffer<S> {
    fn from_iter<I: IntoIterator<Item = Particle<S>>>(iter: I) -> Self {
        let mut buffer = ParticleBuffer::default();
        for p in iter {
            buffer.push(p);
        }
        buffer
    }
}

/// A shared view over the four component arrays of a particle range.
#[derive(Debug, Clone, Copy)]
pub struct ParticleSlice<'a, S: Scalar> {
    /// X positions, metres.
    pub x: &'a [S],
    /// Y positions, metres.
    pub y: &'a [S],
    /// Yaw angles, radians.
    pub theta: &'a [S],
    /// Importance weights.
    pub weight: &'a [S],
}

impl<'a, S: Scalar> ParticleSlice<'a, S> {
    /// Number of particles in the view.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// Returns `true` when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Gathers particle `i` of the view.
    pub fn get(&self, i: usize) -> Particle<S> {
        Particle {
            x: self.x[i],
            y: self.y[i],
            theta: self.theta[i],
            weight: self.weight[i],
        }
    }

    /// Splits the view into `[0, mid)` and `[mid, len)`.
    pub fn split_at(self, mid: usize) -> (ParticleSlice<'a, S>, ParticleSlice<'a, S>) {
        let (xa, xb) = self.x.split_at(mid);
        let (ya, yb) = self.y.split_at(mid);
        let (ta, tb) = self.theta.split_at(mid);
        let (wa, wb) = self.weight.split_at(mid);
        (
            ParticleSlice {
                x: xa,
                y: ya,
                theta: ta,
                weight: wa,
            },
            ParticleSlice {
                x: xb,
                y: yb,
                theta: tb,
                weight: wb,
            },
        )
    }
}

/// A mutable view over the four component arrays of a particle range.
#[derive(Debug)]
pub struct ParticleSliceMut<'a, S: Scalar> {
    /// X positions, metres.
    pub x: &'a mut [S],
    /// Y positions, metres.
    pub y: &'a mut [S],
    /// Yaw angles, radians.
    pub theta: &'a mut [S],
    /// Importance weights.
    pub weight: &'a mut [S],
}

impl<'a, S: Scalar> ParticleSliceMut<'a, S> {
    /// Number of particles in the view.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// Returns `true` when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Gathers particle `i` of the view.
    pub fn get(&self, i: usize) -> Particle<S> {
        Particle {
            x: self.x[i],
            y: self.y[i],
            theta: self.theta[i],
            weight: self.weight[i],
        }
    }

    /// Scatters `p` into slot `i` of the view.
    pub fn set(&mut self, i: usize, p: Particle<S>) {
        self.x[i] = p.x;
        self.y[i] = p.y;
        self.theta[i] = p.theta;
        self.weight[i] = p.weight;
    }

    /// Splits the view into `[0, mid)` and `[mid, len)`.
    pub fn split_at_mut(self, mid: usize) -> (ParticleSliceMut<'a, S>, ParticleSliceMut<'a, S>) {
        let (xa, xb) = self.x.split_at_mut(mid);
        let (ya, yb) = self.y.split_at_mut(mid);
        let (ta, tb) = self.theta.split_at_mut(mid);
        let (wa, wb) = self.weight.split_at_mut(mid);
        (
            ParticleSliceMut {
                x: xa,
                y: ya,
                theta: ta,
                weight: wa,
            },
            ParticleSliceMut {
                x: xb,
                y: yb,
                theta: tb,
                weight: wb,
            },
        )
    }
}

/// The double-buffered particle population (structure-of-arrays storage).
#[derive(Debug, Clone, PartialEq)]
pub struct ParticleSet<S: Scalar> {
    current: ParticleBuffer<S>,
    scratch: ParticleBuffer<S>,
    initialized: bool,
}

impl<S: Scalar> ParticleSet<S> {
    /// Creates an uninitialized set with capacity for `n` particles.
    ///
    /// # Errors
    ///
    /// Returns [`MclError::InvalidConfig`] when `n` is zero.
    pub fn with_capacity(n: usize) -> Result<Self, MclError> {
        if n == 0 {
            return Err(MclError::InvalidConfig("num_particles must be > 0"));
        }
        Ok(ParticleSet {
            current: ParticleBuffer::with_capacity(n),
            scratch: ParticleBuffer::with_capacity(n),
            initialized: false,
        })
    }

    /// Number of particles currently in the set (0 before initialization).
    pub fn len(&self) -> usize {
        self.current.len()
    }

    /// Returns `true` before initialization.
    pub fn is_empty(&self) -> bool {
        self.current.is_empty()
    }

    /// Returns `true` once the set has been initialized.
    pub fn is_initialized(&self) -> bool {
        self.initialized
    }

    /// Read access to the current particle generation.
    pub fn current(&self) -> &ParticleBuffer<S> {
        &self.current
    }

    /// Mutable access to the current generation (used by the motion /
    /// observation kernels).
    pub fn current_mut(&mut self) -> &mut ParticleBuffer<S> {
        &mut self.current
    }

    /// Both buffers at once: `(current, scratch)`. The resampler writes the new
    /// generation into `scratch`, then [`ParticleSet::swap_buffers`] makes it
    /// current — exactly the double-buffering scheme the paper accounts 2× the
    /// particle memory for.
    pub fn buffers_mut(&mut self) -> (&mut ParticleBuffer<S>, &mut ParticleBuffer<S>) {
        (&mut self.current, &mut self.scratch)
    }

    /// Swaps the current and scratch buffers after a resampling pass.
    pub fn swap_buffers(&mut self) {
        core::mem::swap(&mut self.current, &mut self.scratch);
    }

    /// Iterates over the current generation as [`Particle`] values.
    pub fn iter(&self) -> impl Iterator<Item = Particle<S>> + '_ {
        self.current.iter()
    }

    /// Gathers the current generation into an array-of-structs `Vec`.
    pub fn to_particles(&self) -> Vec<Particle<S>> {
        self.current.to_particles()
    }

    /// Initializes the set with `n` particles drawn uniformly over the free cells
    /// of `map` with uniform random headings and equal weights.
    ///
    /// # Errors
    ///
    /// Returns [`MclError::NoFreeSpace`] when the map has no free cell.
    pub fn initialize_uniform(
        &mut self,
        n: usize,
        map: &OccupancyGrid,
        seed: u64,
    ) -> Result<(), MclError> {
        let free: Vec<_> = map
            .indices()
            .filter(|&i| map.state(i) == CellState::Free)
            .collect();
        if free.is_empty() {
            return Err(MclError::NoFreeSpace);
        }
        let weight = 1.0 / n as f32;
        self.current.clear();
        for i in 0..n {
            let mut rng = CounterRng::for_particle(seed, u64::MAX - 1, i as u64);
            let cell = free[(rng.next_u64() % free.len() as u64) as usize];
            let centre = map.cell_to_world(cell);
            // Jitter inside the cell so particles do not snap to cell centres.
            let half = map.resolution() * 0.5;
            let pose = Pose2::new(
                centre.x + rng.uniform_range(-half, half),
                centre.y + rng.uniform_range(-half, half),
                rng.uniform_range(0.0, core::f32::consts::TAU),
            );
            self.current.push(Particle::from_pose(&pose, weight));
        }
        self.scratch = self.current.clone();
        self.initialized = true;
        Ok(())
    }

    /// Initializes the set with `n` particles drawn from a Gaussian around
    /// `pose` (position std `std_xy`, yaw std `std_theta`) — the "tracking"
    /// initialization used when the take-off position is approximately known.
    pub fn initialize_gaussian(
        &mut self,
        n: usize,
        pose: &Pose2,
        std_xy: f32,
        std_theta: f32,
        seed: u64,
    ) -> Result<(), MclError> {
        if n == 0 {
            return Err(MclError::InvalidConfig("num_particles must be > 0"));
        }
        let weight = 1.0 / n as f32;
        self.current.clear();
        for i in 0..n {
            let mut rng = CounterRng::for_particle(seed, u64::MAX - 2, i as u64);
            let p = Pose2::new(
                rng.normal(pose.x, std_xy),
                rng.normal(pose.y, std_xy),
                rng.normal(pose.theta, std_theta),
            );
            self.current.push(Particle::from_pose(&p, weight));
        }
        self.scratch = self.current.clone();
        self.initialized = true;
        Ok(())
    }

    /// Sum of all weights (in `f32`, summed in storage order like the firmware's
    /// sequential normalization pass).
    pub fn weight_sum(&self) -> f32 {
        self.current.weight.iter().map(|w| w.to_f32()).sum()
    }

    /// Normalizes the weights to sum to one. If the sum has collapsed to zero
    /// (every particle is impossible under the observation) or is non-finite
    /// (a NaN/∞ weight slipped in — dividing by it would poison every weight),
    /// the weights are reset to uniform — the standard MCL recovery behaviour.
    ///
    /// Both passes read the weights as `f32` in storage order, so the sum has
    /// the bits of [`ParticleSet::weight_sum`]: fp32 sums and divides in
    /// place, other precisions go through stack blocks converted with
    /// [`Scalar::widen`] / [`Scalar::narrow`].
    pub fn normalize_weights(&mut self) {
        let mut sum = -0.0f32;
        for_each_widened_block([&self.current.weight], |[w]| {
            sum = w.iter().fold(sum, |sum, &w| sum + w);
        });
        if !sum.is_finite() || sum <= f32::MIN_POSITIVE {
            let uniform = S::from_f32(1.0 / self.current.len().max(1) as f32);
            self.current.weight.fill(uniform);
            return;
        }
        if S::f32_slice(&self.current.weight).is_some() {
            for w in &mut self.current.weight {
                *w = S::from_f32(w.to_f32() / sum);
            }
            return;
        }
        let mut block = [0.0f32; WIDEN_BLOCK];
        for stored in self.current.weight.chunks_mut(WIDEN_BLOCK) {
            let block = &mut block[..stored.len()];
            S::widen(stored, block);
            for w in block.iter_mut() {
                *w /= sum;
            }
            S::narrow(block, stored);
        }
    }

    /// Effective sample size `(Σ wᵢ)² / Σ wᵢ²` of the weights.
    ///
    /// The ratio form is invariant under weight rescaling, so the estimate is
    /// correct whether or not [`ParticleSet::normalize_weights`] ran first —
    /// on normalized weights it reduces to the textbook `1 / Σ wᵢ²`. Returns
    /// `0.0` for a fully collapsed (or non-finite) weight set.
    pub fn effective_sample_size(&self) -> f32 {
        effective_sample_size_of(self.current.weight.iter().map(|w| w.to_f32()))
    }

    /// Memory used by the particle storage: both buffers, 4 scalars each, which
    /// is the paper's 32 B/particle for fp32 and 16 B/particle for fp16.
    pub fn memory_bytes(&self) -> usize {
        self.current.storage_bytes() + self.scratch.storage_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcl_gridmap::MapBuilder;
    use mcl_num::F16;

    fn map() -> OccupancyGrid {
        MapBuilder::new(2.0, 2.0, 0.05).border_walls().build()
    }

    #[test]
    fn particle_bytes_match_the_paper() {
        assert_eq!(Particle::<f32>::bytes(), 16);
        assert_eq!(Particle::<F16>::bytes(), 8);
    }

    #[test]
    fn buffer_gather_scatter_roundtrip() {
        let mut buffer = ParticleBuffer::<f32>::with_capacity(4);
        for i in 0..4 {
            buffer.push(Particle::from_pose(
                &Pose2::new(i as f32, 2.0 * i as f32, 0.1 * i as f32),
                0.25,
            ));
        }
        assert_eq!(buffer.len(), 4);
        assert_eq!(buffer.get(2).x, 2.0);
        assert_eq!(buffer.pose(3).y, 6.0);
        let p = Particle::from_pose(&Pose2::new(9.0, 9.0, 0.5), 0.7);
        buffer.set(1, p);
        assert_eq!(buffer.get(1), p);
        // Component arrays stay contiguous and consistent.
        assert_eq!(buffer.x().len(), 4);
        assert_eq!(buffer.weight()[1], 0.7);
        let gathered = buffer.to_particles();
        let rebuilt: ParticleBuffer<f32> = gathered.iter().copied().collect();
        assert_eq!(rebuilt, buffer);
    }

    #[test]
    fn slice_views_split_consistently() {
        let buffer: ParticleBuffer<f32> = (0..10)
            .map(|i| Particle::from_pose(&Pose2::new(i as f32, 0.0, 0.0), 0.1))
            .collect();
        let (a, b) = buffer.as_slice().split_at(4);
        assert_eq!(a.len(), 4);
        assert_eq!(b.len(), 6);
        assert_eq!(a.get(3).x, 3.0);
        assert_eq!(b.get(0).x, 4.0);
        let mut buffer = buffer;
        let (mut ma, mut mb) = buffer.as_mut_slice().split_at_mut(4);
        assert!(!ma.is_empty());
        ma.set(0, Particle::from_pose(&Pose2::new(100.0, 0.0, 0.0), 0.1));
        mb.set(5, Particle::from_pose(&Pose2::new(200.0, 0.0, 0.0), 0.1));
        assert_eq!(buffer.get(0).x, 100.0);
        assert_eq!(buffer.get(9).x, 200.0);
    }

    #[test]
    fn uniform_initialization_places_particles_in_free_space() {
        let map = map();
        let mut set = ParticleSet::<f32>::with_capacity(256).unwrap();
        set.initialize_uniform(256, &map, 3).unwrap();
        assert_eq!(set.len(), 256);
        assert!(set.is_initialized());
        for p in set.iter() {
            assert_eq!(
                map.state_at_world(p.x, p.y),
                CellState::Free,
                "particle at {:?} is not in free space",
                p.pose()
            );
            assert!((0.0..core::f32::consts::TAU).contains(&p.theta));
        }
        // Weights start uniform.
        assert!((set.weight_sum() - 1.0).abs() < 1e-4);
        assert!((set.effective_sample_size() - 256.0).abs() < 1.0);
    }

    #[test]
    fn uniform_initialization_is_deterministic_in_the_seed() {
        let map = map();
        let mut a = ParticleSet::<f32>::with_capacity(64).unwrap();
        let mut b = ParticleSet::<f32>::with_capacity(64).unwrap();
        a.initialize_uniform(64, &map, 42).unwrap();
        b.initialize_uniform(64, &map, 42).unwrap();
        assert_eq!(a.current(), b.current());
        let mut c = ParticleSet::<f32>::with_capacity(64).unwrap();
        c.initialize_uniform(64, &map, 43).unwrap();
        assert_ne!(a.current(), c.current());
    }

    #[test]
    fn gaussian_initialization_clusters_around_the_pose() {
        let pose = Pose2::new(1.0, 1.0, 0.5);
        let mut set = ParticleSet::<f32>::with_capacity(2000).unwrap();
        set.initialize_gaussian(2000, &pose, 0.2, 0.05, 7).unwrap();
        let mean_x: f32 = set.current().x().iter().sum::<f32>() / set.len() as f32;
        let mean_y: f32 = set.current().y().iter().sum::<f32>() / set.len() as f32;
        assert!((mean_x - 1.0).abs() < 0.02);
        assert!((mean_y - 1.0).abs() < 0.02);
    }

    #[test]
    fn no_free_space_is_reported() {
        let blocked = MapBuilder::new(0.3, 0.3, 0.1)
            .filled_rect((0.0, 0.0), (0.3, 0.3))
            .build();
        let mut set = ParticleSet::<f32>::with_capacity(16).unwrap();
        assert_eq!(
            set.initialize_uniform(16, &blocked, 0).unwrap_err(),
            MclError::NoFreeSpace
        );
        assert!(!set.is_initialized());
    }

    #[test]
    fn zero_capacity_is_rejected() {
        assert!(ParticleSet::<f32>::with_capacity(0).is_err());
        let mut set = ParticleSet::<f32>::with_capacity(4).unwrap();
        assert!(set
            .initialize_gaussian(0, &Pose2::default(), 0.1, 0.1, 0)
            .is_err());
    }

    #[test]
    fn normalize_weights_sums_to_one_and_recovers_from_collapse() {
        let map = map();
        let mut set = ParticleSet::<f32>::with_capacity(10).unwrap();
        set.initialize_uniform(10, &map, 1).unwrap();
        for (i, w) in set.current_mut().weight_mut().iter_mut().enumerate() {
            *w = (i as f32) * 0.3;
        }
        set.normalize_weights();
        assert!((set.weight_sum() - 1.0).abs() < 1e-5);
        // Collapse: all weights zero → reset to uniform.
        for w in set.current_mut().weight_mut() {
            *w = 0.0;
        }
        set.normalize_weights();
        assert!((set.weight_sum() - 1.0).abs() < 1e-5);
        assert!((set.effective_sample_size() - 10.0).abs() < 1e-3);
    }

    #[test]
    fn normalize_weights_recovers_from_nan_weight_sum() {
        // Regression: a NaN weight made weight_sum() NaN, which passed the
        // `sum <= f32::MIN_POSITIVE` collapse guard (NaN comparisons are
        // false) and the division then poisoned every weight with NaN.
        let map = map();
        let mut set = ParticleSet::<f32>::with_capacity(10).unwrap();
        set.initialize_uniform(10, &map, 1).unwrap();
        set.current_mut().weight_mut()[3] = f32::NAN;
        assert!(set.weight_sum().is_nan());
        set.normalize_weights();
        assert!(set.current().weight().iter().all(|w| w.is_finite()));
        assert!((set.weight_sum() - 1.0).abs() < 1e-5);
        // Same hole with an infinite sum.
        set.current_mut().weight_mut()[0] = f32::INFINITY;
        set.normalize_weights();
        assert!((set.weight_sum() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn effective_sample_size_is_normalization_invariant() {
        // Regression: `1 / Σ wᵢ²` on UNnormalized weights is wrong — uniform
        // weights of 2.0 over 8 particles gave 1/(8·4) = 0.03 instead of 8.
        // The ratio form (Σw)²/Σw² must agree before and after normalization.
        let map = map();
        let mut set = ParticleSet::<f32>::with_capacity(8).unwrap();
        set.initialize_uniform(8, &map, 4).unwrap();
        for w in set.current_mut().weight_mut() {
            *w = 2.0;
        }
        assert!((set.effective_sample_size() - 8.0).abs() < 1e-3);
        let before = set.effective_sample_size();
        set.normalize_weights();
        assert!((set.effective_sample_size() - before).abs() < 1e-3);

        // Skewed unnormalized weights: ESS = (Σw)²/Σw² analytically.
        let weights = [4.0f32, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0];
        for (w, v) in set.current_mut().weight_mut().iter_mut().zip(weights) {
            *w = v;
        }
        let expected = {
            let s: f32 = weights.iter().sum();
            let sq: f32 = weights.iter().map(|w| w * w).sum();
            s * s / sq
        };
        assert!((set.effective_sample_size() - expected).abs() < 1e-3);
        set.normalize_weights();
        assert!((set.effective_sample_size() - expected).abs() < 1e-3);
    }

    #[test]
    fn effective_sample_size_is_normalization_invariant_at_f16() {
        let map = map();
        let mut set = ParticleSet::<F16>::with_capacity(16).unwrap();
        set.initialize_uniform(16, &map, 9).unwrap();
        // Uniform but unnormalized: ESS must still read the population size
        // (binary16 storage rounds the normalized weights, so allow slack).
        for w in set.current_mut().weight_mut() {
            *w = F16::from_f32(0.25);
        }
        assert!((set.effective_sample_size() - 16.0).abs() < 0.1);
        set.normalize_weights();
        assert!((set.effective_sample_size() - 16.0).abs() < 0.1);
    }

    #[test]
    fn block_normalization_matches_a_per_element_reference() {
        // 601 particles span three WIDEN_BLOCKs with a partial last one. The
        // normalization must return the bits of the per-element loop
        // `from_f32(to_f32(w) / weight_sum())`, and reset to uniform on a
        // collapsed or NaN sum, at both precisions.
        fn check<S: Scalar>(weights: impl Fn(usize) -> f32) {
            let map = map();
            let mut set = ParticleSet::<S>::with_capacity(601).unwrap();
            set.initialize_uniform(601, &map, 4).unwrap();
            for (i, w) in set.current_mut().weight_mut().iter_mut().enumerate() {
                *w = S::from_f32(weights(i));
            }
            let sum = set.weight_sum();
            let expect: Vec<u32> = if sum.is_finite() && sum > f32::MIN_POSITIVE {
                set.current()
                    .weight()
                    .iter()
                    .map(|w| S::from_f32(w.to_f32() / sum).to_f32().to_bits())
                    .collect()
            } else {
                vec![S::from_f32(1.0 / 601.0).to_f32().to_bits(); 601]
            };
            set.normalize_weights();
            let got: Vec<u32> = set
                .current()
                .weight()
                .iter()
                .map(|w| w.to_f32().to_bits())
                .collect();
            assert_eq!(got, expect);
        }
        let varied = |i: usize| 0.25 + (i % 37) as f32 * 0.013;
        check::<f32>(varied);
        check::<F16>(varied);
        check::<f32>(|_| 0.0);
        check::<F16>(|_| 0.0);
        check::<F16>(|i| if i == 300 { f32::NAN } else { 0.5 });
    }

    #[test]
    fn effective_sample_size_drops_when_one_particle_dominates() {
        let map = map();
        let mut set = ParticleSet::<f32>::with_capacity(100).unwrap();
        set.initialize_uniform(100, &map, 2).unwrap();
        for w in set.current_mut().weight_mut() {
            *w = 1e-9;
        }
        set.current_mut().weight_mut()[0] = 1.0;
        set.normalize_weights();
        assert!(set.effective_sample_size() < 1.5);
    }

    #[test]
    fn memory_accounting_doubles_for_the_two_buffers() {
        let map = map();
        let mut set = ParticleSet::<f32>::with_capacity(1024).unwrap();
        set.initialize_uniform(1024, &map, 0).unwrap();
        assert_eq!(set.memory_bytes(), 2 * 1024 * 16);
        let mut half = ParticleSet::<F16>::with_capacity(1024).unwrap();
        half.initialize_uniform(1024, &map, 0).unwrap();
        assert_eq!(half.memory_bytes(), 2 * 1024 * 8);
    }

    #[test]
    fn buffer_swap_exchanges_generations() {
        let map = map();
        let mut set = ParticleSet::<f32>::with_capacity(8).unwrap();
        set.initialize_uniform(8, &map, 5).unwrap();
        let first = set.current().get(0);
        {
            let (_current, scratch) = set.buffers_mut();
            let mut p = scratch.get(0);
            p.x = 9.0;
            scratch.set(0, p);
        }
        set.swap_buffers();
        assert_eq!(set.current().get(0).x, 9.0);
        set.swap_buffers();
        assert_eq!(set.current().get(0), first);
    }

    #[test]
    fn f16_particles_round_their_storage() {
        let pose = Pose2::new(1.0 + 1e-4, 2.0, 0.3);
        let p = Particle::<F16>::from_pose(&pose, 0.1);
        // 1.0001 is not representable in binary16 and rounds back to 1.0.
        assert_eq!(p.x.to_f32(), 1.0);
        assert!(p.pose().translation_distance(&pose) < 1e-3);
    }
}
