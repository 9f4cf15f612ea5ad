//! Planar/spherical geometry helpers for road networks.
//!
//! Nodes carry WGS84-style `(lon, lat)` coordinates. Distances use the
//! haversine formula; bearings and turn angles feed the hybrid model's pair
//! features (a sharp turn at an intersection correlates with dependent
//! travel times, e.g. queueing before a left turn).

use serde::{Deserialize, Serialize};

/// Mean Earth radius in metres (IUGG).
pub const EARTH_RADIUS_M: f64 = 6_371_008.8;

/// A geographic point: longitude and latitude in degrees.
#[derive(Copy, Clone, PartialEq, Debug, Default, Serialize, Deserialize)]
pub struct Point {
    /// Longitude in degrees, positive east.
    pub lon: f64,
    /// Latitude in degrees, positive north.
    pub lat: f64,
}

impl Point {
    /// Creates a point from longitude/latitude degrees.
    #[inline]
    pub fn new(lon: f64, lat: f64) -> Self {
        Point { lon, lat }
    }

    /// Great-circle (haversine) distance to `other`, in metres.
    pub fn haversine_m(&self, other: &Point) -> f64 {
        let lat1 = self.lat.to_radians();
        let lat2 = other.lat.to_radians();
        let dlat = (other.lat - self.lat).to_radians();
        let dlon = (other.lon - self.lon).to_radians();
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_M * a.sqrt().asin()
    }

    /// Initial bearing from `self` towards `other`, in degrees `[0, 360)`.
    fn bearing_deg(&self, other: &Point) -> f64 {
        let lat1 = self.lat.to_radians();
        let lat2 = other.lat.to_radians();
        let dlon = (other.lon - self.lon).to_radians();
        let y = dlon.sin() * lat2.cos();
        let x = lat1.cos() * lat2.sin() - lat1.sin() * lat2.cos() * dlon.cos();
        let deg = y.atan2(x).to_degrees();
        (deg + 360.0) % 360.0
    }
}

/// Turn angle in degrees `[0, 180]` when travelling `a -> b -> c`.
///
/// `0` means continuing straight, `180` a full U-turn. Degenerate inputs
/// (coincident points) yield `0`.
pub fn turn_angle_deg(a: &Point, b: &Point, c: &Point) -> f64 {
    if a == b || b == c {
        return 0.0;
    }
    let incoming = a.bearing_deg(b);
    let outgoing = b.bearing_deg(c);
    let mut diff = (outgoing - incoming).abs() % 360.0;
    if diff > 180.0 {
        diff = 360.0 - diff;
    }
    diff
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn haversine_zero_for_identical_points() {
        let p = Point::new(9.92, 57.05);
        assert_eq!(p.haversine_m(&p), 0.0);
    }

    #[test]
    fn haversine_is_symmetric() {
        let a = Point::new(9.92, 57.05);
        let b = Point::new(10.21, 56.16);
        assert!(close(a.haversine_m(&b), b.haversine_m(&a), 1e-9));
    }

    #[test]
    fn haversine_aalborg_to_aarhus_is_about_100km() {
        // Aalborg (9.92E, 57.05N) to Aarhus (10.21E, 56.16N): ~100 km.
        let aalborg = Point::new(9.92, 57.05);
        let aarhus = Point::new(10.21, 56.16);
        let d = aalborg.haversine_m(&aarhus);
        assert!(d > 95_000.0 && d < 110_000.0, "got {d}");
    }

    #[test]
    fn one_degree_longitude_at_equator_is_about_111km() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(1.0, 0.0);
        assert!(close(a.haversine_m(&b), 111_195.0, 200.0));
    }

    #[test]
    fn bearing_north_is_zero() {
        let a = Point::new(10.0, 56.0);
        let b = Point::new(10.0, 57.0);
        assert!(close(a.bearing_deg(&b), 0.0, 1e-6));
    }

    #[test]
    fn bearing_east_is_ninety() {
        let a = Point::new(10.0, 0.0);
        let b = Point::new(11.0, 0.0);
        assert!(close(a.bearing_deg(&b), 90.0, 1e-6));
    }

    #[test]
    fn straight_line_turn_angle_is_zero() {
        let a = Point::new(10.0, 0.0);
        let b = Point::new(10.1, 0.0);
        let c = Point::new(10.2, 0.0);
        assert!(close(turn_angle_deg(&a, &b, &c), 0.0, 1e-6));
    }

    #[test]
    fn right_angle_turn_is_ninety() {
        let a = Point::new(10.0, 0.0);
        let b = Point::new(10.1, 0.0);
        let c = Point::new(10.1, 0.1);
        assert!(close(turn_angle_deg(&a, &b, &c), 90.0, 0.1));
    }

    #[test]
    fn u_turn_is_one_eighty() {
        let a = Point::new(10.0, 0.0);
        let b = Point::new(10.1, 0.0);
        assert!(close(turn_angle_deg(&a, &b, &a), 180.0, 1e-6));
    }

    #[test]
    fn degenerate_turn_is_zero() {
        let a = Point::new(10.0, 0.0);
        assert_eq!(turn_angle_deg(&a, &a, &a), 0.0);
    }
}
