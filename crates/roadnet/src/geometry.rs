//! Planar geometry primitives used to lay out road networks.
//!
//! All coordinates are in metres in a local east-north plane. The counting
//! protocol itself never looks at geometry; it only matters for segment
//! lengths (travel times) and for rendering/debugging.

use serde::{Deserialize, Serialize};

/// A point in the local east/north plane, in metres.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Point {
    /// Easting in metres.
    pub x: f64,
    /// Northing in metres.
    pub y: f64,
}

impl Point {
    /// Creates a point from east/north coordinates in metres.
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`, in metres.
    pub fn distance(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// Squared Euclidean distance (avoids the square root in hot loops).
    pub fn distance_sq(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }
}

/// Axis-aligned bounding box of a set of points.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Bounds {
    /// Minimum corner (south-west).
    pub min: Point,
    /// Maximum corner (north-east).
    pub max: Point,
}

impl Bounds {
    /// Bounding box of an iterator of points. Returns `None` when empty.
    pub fn of(points: impl IntoIterator<Item = Point>) -> Option<Bounds> {
        let mut it = points.into_iter();
        let first = it.next()?;
        let mut b = Bounds {
            min: first,
            max: first,
        };
        for p in it {
            b.min.x = b.min.x.min(p.x);
            b.min.y = b.min.y.min(p.y);
            b.max.x = b.max.x.max(p.x);
            b.max.y = b.max.y.max(p.y);
        }
        Some(b)
    }

    /// Width (east-west extent) in metres.
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height (north-south extent) in metres.
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Length of the box diagonal in metres. The paper's observation 5 notes
    /// that counting time is proportional to travel time along the region
    /// diameter; this is the geometric proxy we report for it.
    pub fn diagonal(&self) -> f64 {
        self.min.distance(&self.max)
    }

    /// Whether `p` lies inside (or on the boundary of) the box.
    pub fn contains(&self, p: &Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }
}

/// Converts miles per hour to metres per second. The paper specifies speed
/// limits of 15 mph and 25 mph (NYC's then-proposed limit, ref \[14\]).
pub fn mph_to_mps(mph: f64) -> f64 {
    mph * 0.44704
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
        assert!((a.distance_sq(&b) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Point::new(-2.5, 7.0);
        let b = Point::new(10.0, -1.0);
        assert_eq!(a.distance(&b), b.distance(&a));
    }

    #[test]
    fn bounds_of_points() {
        let b = Bounds::of([
            Point::new(1.0, 5.0),
            Point::new(-2.0, 3.0),
            Point::new(4.0, -1.0),
        ])
        .unwrap();
        assert_eq!(b.min.x, -2.0);
        assert_eq!(b.min.y, -1.0);
        assert_eq!(b.max.x, 4.0);
        assert_eq!(b.max.y, 5.0);
        assert_eq!(b.width(), 6.0);
        assert_eq!(b.height(), 6.0);
        assert!(b.contains(&Point::new(0.0, 0.0)));
        assert!(!b.contains(&Point::new(5.0, 0.0)));
    }

    #[test]
    fn bounds_of_empty_is_none() {
        assert!(Bounds::of(std::iter::empty()).is_none());
    }

    #[test]
    fn mph_converts_at_the_papers_operating_points() {
        assert!((mph_to_mps(15.0) - 6.7056).abs() < 1e-4);
        assert!((mph_to_mps(25.0) - 11.176).abs() < 1e-3);
    }
}
