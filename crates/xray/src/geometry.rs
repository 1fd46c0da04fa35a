//! Atomistic models of candidate carbon nanostructures.

use std::f64::consts::PI;

/// Approximate areal density of atoms on a graphene-like surface, in atoms
/// per square nanometre (graphene: ≈38.2 atoms/nm²; we sample sparser to
/// keep Debye sums fast while preserving curve shapes).
const AREAL_DENSITY: f64 = 8.0;

/// The families of structures considered in the paper's analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StructureKind {
    /// A torus: `major_r` (ring radius) and `minor_r` (tube radius), both in
    /// nm. Aspect ratio = `major_r / minor_r`; the paper's finding concerns
    /// *low*-aspect-ratio toroids.
    Toroid {
        /// Ring radius (nm).
        major_r: f64,
        /// Tube radius (nm).
        minor_r: f64,
    },
    /// An open single-wall tube: radius and length (nm).
    Tube {
        /// Cylinder radius (nm).
        radius: f64,
        /// Cylinder length (nm).
        length: f64,
    },
    /// A spherical shell (fullerene-like), radius in nm.
    Sphere {
        /// Shell radius (nm).
        radius: f64,
    },
    /// A flat square graphene flake with the given side (nm).
    Flake {
        /// Side length (nm).
        side: f64,
    },
}

impl StructureKind {
    /// A short label used in service inputs and reports.
    pub fn label(&self) -> String {
        match self {
            StructureKind::Toroid { major_r, minor_r } => {
                format!("toroid(R={major_r:.2},r={minor_r:.2})")
            }
            StructureKind::Tube { radius, length } => format!("tube(r={radius:.2},l={length:.2})"),
            StructureKind::Sphere { radius } => format!("sphere(r={radius:.2})"),
            StructureKind::Flake { side } => format!("flake(a={side:.2})"),
        }
    }

    /// Aspect ratio where defined (toroids), the quantity the paper's
    /// conclusion is phrased in.
    pub fn aspect_ratio(&self) -> Option<f64> {
        match *self {
            StructureKind::Toroid { major_r, minor_r } => Some(major_r / minor_r),
            _ => None,
        }
    }
}

/// A concrete structure: its kind plus sampled atom positions.
#[derive(Debug, Clone)]
pub struct Nanostructure {
    kind: StructureKind,
    atoms: Vec<[f64; 3]>,
}

impl Nanostructure {
    /// Samples a structure's surface into atom positions.
    ///
    /// Sampling is deterministic (quasi-uniform lattices), so identical
    /// kinds produce identical curves on every platform.
    ///
    /// # Panics
    ///
    /// Panics on non-positive dimensions.
    pub fn build(kind: StructureKind) -> Self {
        let atoms = match kind {
            StructureKind::Toroid { major_r, minor_r } => {
                assert!(
                    major_r > 0.0 && minor_r > 0.0,
                    "torus radii must be positive"
                );
                sample_torus(major_r, minor_r)
            }
            StructureKind::Tube { radius, length } => {
                assert!(
                    radius > 0.0 && length > 0.0,
                    "tube dimensions must be positive"
                );
                sample_tube(radius, length)
            }
            StructureKind::Sphere { radius } => {
                assert!(radius > 0.0, "sphere radius must be positive");
                sample_sphere(radius)
            }
            StructureKind::Flake { side } => {
                assert!(side > 0.0, "flake side must be positive");
                sample_flake(side)
            }
        };
        Nanostructure { kind, atoms }
    }

    /// The structure kind.
    pub fn kind(&self) -> StructureKind {
        self.kind
    }

    /// The sampled atom positions (nm).
    pub fn atoms(&self) -> &[[f64; 3]] {
        &self.atoms
    }

    /// Largest pairwise extent (nm) — a sanity metric for tests.
    pub fn diameter(&self) -> f64 {
        let mut best = 0.0f64;
        for (i, a) in self.atoms.iter().enumerate() {
            for b in &self.atoms[i + 1..] {
                best = best.max(dist(a, b));
            }
        }
        best
    }
}

pub(crate) fn dist(a: &[f64; 3], b: &[f64; 3]) -> f64 {
    let dx = a[0] - b[0];
    let dy = a[1] - b[1];
    let dz = a[2] - b[2];
    (dx * dx + dy * dy + dz * dz).sqrt()
}

fn sample_torus(major_r: f64, minor_r: f64) -> Vec<[f64; 3]> {
    let area = 4.0 * PI * PI * major_r * minor_r;
    let target = (area * AREAL_DENSITY).max(16.0);
    // Lattice in the two angles, proportioned to the circumferences.
    let n_major = ((target * major_r / (major_r + minor_r)).sqrt() * 2.0)
        .ceil()
        .max(4.0) as usize;
    let n_minor = (target / n_major as f64).ceil().max(3.0) as usize;
    let mut atoms = Vec::with_capacity(n_major * n_minor);
    for i in 0..n_major {
        let u = 2.0 * PI * i as f64 / n_major as f64;
        for j in 0..n_minor {
            let v = 2.0 * PI * j as f64 / n_minor as f64;
            let w = major_r + minor_r * v.cos();
            atoms.push([w * u.cos(), w * u.sin(), minor_r * v.sin()]);
        }
    }
    atoms
}

fn sample_tube(radius: f64, length: f64) -> Vec<[f64; 3]> {
    let area = 2.0 * PI * radius * length;
    let target = (area * AREAL_DENSITY).max(16.0);
    let n_around = ((2.0 * PI * radius) * (target / area).sqrt())
        .ceil()
        .max(3.0) as usize;
    let n_along = (target / n_around as f64).ceil().max(2.0) as usize;
    let mut atoms = Vec::with_capacity(n_around * n_along);
    for i in 0..n_along {
        let z = length * (i as f64 / (n_along - 1).max(1) as f64 - 0.5);
        for j in 0..n_around {
            let t = 2.0 * PI * j as f64 / n_around as f64;
            atoms.push([radius * t.cos(), radius * t.sin(), z]);
        }
    }
    atoms
}

fn sample_sphere(radius: f64) -> Vec<[f64; 3]> {
    let area = 4.0 * PI * radius * radius;
    let n = (area * AREAL_DENSITY).max(16.0) as usize;
    // Fibonacci sphere: quasi-uniform, deterministic.
    let golden = PI * (3.0 - 5.0f64.sqrt());
    (0..n)
        .map(|i| {
            let y = 1.0 - 2.0 * (i as f64 + 0.5) / n as f64;
            let r = (1.0 - y * y).sqrt();
            let t = golden * i as f64;
            [radius * r * t.cos(), radius * y, radius * r * t.sin()]
        })
        .collect()
}

fn sample_flake(side: f64) -> Vec<[f64; 3]> {
    let target = (side * side * AREAL_DENSITY).max(9.0);
    let n = (target.sqrt().ceil() as usize).max(3);
    let mut atoms = Vec::with_capacity(n * n);
    for i in 0..n {
        for j in 0..n {
            atoms.push([
                side * (i as f64 / (n - 1) as f64 - 0.5),
                side * (j as f64 / (n - 1) as f64 - 0.5),
                0.0,
            ]);
        }
    }
    atoms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atom_counts_scale_with_area() {
        let small = Nanostructure::build(StructureKind::Sphere { radius: 1.0 });
        let large = Nanostructure::build(StructureKind::Sphere { radius: 2.0 });
        assert!(large.atoms().len() > 2 * small.atoms().len());
    }

    #[test]
    fn sphere_atoms_lie_on_the_shell() {
        let s = Nanostructure::build(StructureKind::Sphere { radius: 1.5 });
        for a in s.atoms() {
            let r = (a[0] * a[0] + a[1] * a[1] + a[2] * a[2]).sqrt();
            assert!((r - 1.5).abs() < 1e-9, "r={r}");
        }
        assert!(
            (s.diameter() - 3.0).abs() < 0.2,
            "diameter {}",
            s.diameter()
        );
    }

    #[test]
    fn torus_atoms_respect_both_radii() {
        let t = Nanostructure::build(StructureKind::Toroid {
            major_r: 2.0,
            minor_r: 0.5,
        });
        for a in t.atoms() {
            let ring = (a[0] * a[0] + a[1] * a[1]).sqrt();
            let d = ((ring - 2.0).powi(2) + a[2] * a[2]).sqrt();
            assert!((d - 0.5).abs() < 1e-9, "distance to ring circle {d}");
        }
        assert_eq!(t.kind().aspect_ratio(), Some(4.0));
    }

    #[test]
    fn flake_is_planar_and_tube_has_length() {
        let f = Nanostructure::build(StructureKind::Flake { side: 2.0 });
        assert!(f.atoms().iter().all(|a| a[2] == 0.0));
        let t = Nanostructure::build(StructureKind::Tube {
            radius: 0.5,
            length: 5.0,
        });
        let zmin = t.atoms().iter().map(|a| a[2]).fold(f64::INFINITY, f64::min);
        let zmax = t
            .atoms()
            .iter()
            .map(|a| a[2])
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((zmax - zmin - 5.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_radius_panics() {
        let _ = Nanostructure::build(StructureKind::Sphere { radius: 0.0 });
    }

    #[test]
    fn labels_are_distinct() {
        let kinds = [
            StructureKind::Toroid {
                major_r: 1.0,
                minor_r: 0.4,
            },
            StructureKind::Tube {
                radius: 0.5,
                length: 3.0,
            },
            StructureKind::Sphere { radius: 1.0 },
            StructureKind::Flake { side: 2.0 },
        ];
        let labels: Vec<String> = kinds.iter().map(StructureKind::label).collect();
        for (i, a) in labels.iter().enumerate() {
            for b in &labels[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
