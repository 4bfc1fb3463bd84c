//! The seven paper applications, addressable by index and size.

use polymage_apps::sizes::{self, AppSizes};
use polymage_apps::{bilateral, camera, harris, interpolate, laplacian, pyramid, unsharp};
use polymage_apps::{Benchmark, Scale};

/// A benchmark instance that can be shared by the load threads.
pub type App = Box<dyn Benchmark + Send + Sync>;

/// One of the paper's seven applications.
pub struct AppKind {
    /// Short name used in metric names (`unsharp_ms`, `core.groups.unsharp`).
    pub slug: &'static str,
    /// Canonical Tiny/Small/Paper sizes.
    pub sizes: AppSizes,
    /// Both image dimensions must be multiples of this.
    pub multiple: i64,
    make: fn(i64, i64) -> App,
}

impl AppKind {
    /// The application at explicit `(rows, cols)`.
    pub fn at(&self, rows: i64, cols: i64) -> App {
        (self.make)(rows, cols)
    }

    /// The `(rows, cols)` at a workload scale.
    pub fn dims(&self, scale: Scale) -> (i64, i64) {
        self.sizes.at(scale)
    }
}

/// The applications in Table 2 order.
pub const APPS: [AppKind; 7] = [
    AppKind {
        slug: "unsharp",
        sizes: sizes::UNSHARP,
        multiple: 1,
        make: |r, c| Box::new(unsharp::Unsharp::with_size(r, c)),
    },
    AppKind {
        slug: "bilateral",
        sizes: sizes::BILATERAL,
        multiple: bilateral::S_SIGMA,
        make: |r, c| Box::new(bilateral::BilateralGrid::with_size(r, c)),
    },
    AppKind {
        slug: "harris",
        sizes: sizes::HARRIS,
        multiple: 1,
        make: |r, c| Box::new(harris::HarrisCorner::with_size(r, c)),
    },
    AppKind {
        slug: "camera",
        sizes: sizes::CAMERA,
        multiple: 2,
        make: |r, c| Box::new(camera::CameraPipe::with_size(r, c)),
    },
    AppKind {
        slug: "pyramid",
        sizes: sizes::PYRAMID,
        multiple: 1 << pyramid::LEVELS,
        make: |r, c| Box::new(pyramid::PyramidBlend::with_size(r, c)),
    },
    AppKind {
        slug: "interpolate",
        sizes: sizes::INTERPOLATE,
        multiple: 1 << interpolate::LEVELS,
        make: |r, c| Box::new(interpolate::MultiscaleInterp::with_size(r, c)),
    },
    AppKind {
        slug: "laplacian",
        sizes: sizes::LAPLACIAN,
        multiple: 1 << laplacian::LEVELS,
        make: |r, c| Box::new(laplacian::LocalLaplacian::with_size(r, c)),
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_matches_the_library() {
        let lib = polymage_apps::all_benchmarks(Scale::Tiny);
        for (kind, b) in APPS.iter().zip(&lib) {
            assert_eq!(kind.sizes.name, b.name());
            for scale in [Scale::Tiny, Scale::Small, Scale::Paper] {
                let (r, c) = kind.dims(scale);
                assert_eq!((r % kind.multiple, c % kind.multiple), (0, 0));
                assert_eq!(kind.at(r, c).name(), b.name());
            }
        }
    }
}
