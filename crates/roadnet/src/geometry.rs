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

    /// Linear interpolation from `self` toward `other` by fraction `t`
    /// (`t = 0` yields `self`, `t = 1` yields `other`).
    pub fn lerp(&self, other: &Point, t: f64) -> Point {
        Point::new(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )
    }

    /// Heading from `self` to `other` in radians, measured counter-clockwise
    /// from east. Returns 0 for coincident points.
    pub fn heading_to(&self, other: &Point) -> f64 {
        let dy = other.y - self.y;
        let dx = other.x - self.x;
        if dx == 0.0 && dy == 0.0 {
            0.0
        } else {
            dy.atan2(dx)
        }
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

/// Converts metres per second to miles per hour.
pub fn mps_to_mph(mps: f64) -> f64 {
    mps / 0.44704
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
    fn lerp_endpoints() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(-3.0, 9.0);
        let p0 = a.lerp(&b, 0.0);
        let p1 = a.lerp(&b, 1.0);
        assert_eq!((p0.x, p0.y), (1.0, 2.0));
        assert_eq!((p1.x, p1.y), (-3.0, 9.0));
    }

    #[test]
    fn heading_cardinal_directions() {
        let o = Point::new(0.0, 0.0);
        assert!((o.heading_to(&Point::new(1.0, 0.0)) - 0.0).abs() < 1e-12);
        let north = o.heading_to(&Point::new(0.0, 1.0));
        assert!((north - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn heading_of_coincident_points_is_zero() {
        let o = Point::new(3.0, 3.0);
        assert_eq!(o.heading_to(&o), 0.0);
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
    fn mph_round_trips() {
        for mph in [15.0, 25.0, 66.0] {
            assert!((mps_to_mph(mph_to_mps(mph)) - mph).abs() < 1e-9);
        }
        // The paper's two operating points.
        assert!((mph_to_mps(15.0) - 6.7056).abs() < 1e-4);
        assert!((mph_to_mps(25.0) - 11.176).abs() < 1e-3);
    }
}
