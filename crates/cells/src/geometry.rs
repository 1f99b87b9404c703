//! Planar geometry primitives used throughout the flow.
//!
//! All coordinates are in micrometers (µm). The AQFP standard cell library
//! snaps every dimension to a 10 µm grid, but intermediate analytical
//! placement results are real-valued, so [`Point`] and [`Rect`] use `f64`.

use serde::{Deserialize, Serialize};

/// A point in the layout plane, in micrometers.
///
/// ```
/// use aqfp_cells::Point;
/// let a = Point::new(0.0, 0.0);
/// let b = Point::new(30.0, 40.0);
/// assert_eq!(a.manhattan_distance(b), 70.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point {
    /// Horizontal coordinate (µm).
    pub x: f64,
    /// Vertical coordinate (µm).
    pub y: f64,
}

impl Point {
    /// Creates a point from its coordinates.
    pub fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Manhattan (L1) distance to `other`, the metric used for wirelength.
    pub fn manhattan_distance(self, other: Point) -> f64 {
        (self.x - other.x).abs() + (self.y - other.y).abs()
    }

    /// Snaps both coordinates to the nearest multiple of `grid`.
    ///
    /// # Panics
    ///
    /// Panics if `grid` is not strictly positive.
    pub fn snapped(self, grid: f64) -> Point {
        assert!(grid > 0.0, "grid must be positive");
        Point::new((self.x / grid).round() * grid, (self.y / grid).round() * grid)
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

/// An axis-aligned rectangle, in micrometers.
///
/// The rectangle is stored as its lower-left corner plus width and height so
/// that degenerate (zero-area) rectangles remain representable.
///
/// ```
/// use aqfp_cells::Rect;
/// let r = Rect::new(0.0, 0.0, 40.0, 30.0);
/// assert_eq!(r.area(), 1200.0);
/// assert!(r.contains(aqfp_cells::Point::new(10.0, 10.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Rect {
    /// X coordinate of the lower-left corner (µm).
    pub x: f64,
    /// Y coordinate of the lower-left corner (µm).
    pub y: f64,
    /// Width (µm), non-negative.
    pub width: f64,
    /// Height (µm), non-negative.
    pub height: f64,
}

impl Rect {
    /// Creates a rectangle from its lower-left corner and size.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is negative.
    pub fn new(x: f64, y: f64, width: f64, height: f64) -> Self {
        assert!(width >= 0.0 && height >= 0.0, "rect size must be non-negative");
        Self { x, y, width, height }
    }

    /// Builds the bounding box of a set of points. Returns `None` for an
    /// empty iterator.
    pub fn bounding_box<I: IntoIterator<Item = Point>>(points: I) -> Option<Rect> {
        let mut iter = points.into_iter();
        let first = iter.next()?;
        let (mut min_x, mut min_y, mut max_x, mut max_y) = (first.x, first.y, first.x, first.y);
        for p in iter {
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
            max_x = max_x.max(p.x);
            max_y = max_y.max(p.y);
        }
        Some(Rect::new(min_x, min_y, max_x - min_x, max_y - min_y))
    }

    /// X coordinate of the right edge.
    pub fn right(&self) -> f64 {
        self.x + self.width
    }

    /// Y coordinate of the top edge.
    pub fn top(&self) -> f64 {
        self.y + self.height
    }

    /// Center point of the rectangle.
    pub fn center(&self) -> Point {
        Point::new(self.x + self.width / 2.0, self.y + self.height / 2.0)
    }

    /// Area in µm².
    pub fn area(&self) -> f64 {
        self.width * self.height
    }

    /// Half-perimeter of the rectangle, the HPWL contribution of a net whose
    /// pins span exactly this box.
    pub fn half_perimeter(&self) -> f64 {
        self.width + self.height
    }

    /// Whether `point` lies inside the rectangle (boundary inclusive).
    pub fn contains(&self, point: Point) -> bool {
        point.x >= self.x && point.x <= self.right() && point.y >= self.y && point.y <= self.top()
    }

    /// Whether this rectangle and `other` overlap with strictly positive area.
    pub fn overlaps(&self, other: &Rect) -> bool {
        self.x < other.right()
            && other.x < self.right()
            && self.y < other.top()
            && other.y < self.top()
    }

    /// Horizontal overlap length with `other` (zero if disjoint).
    pub fn x_overlap(&self, other: &Rect) -> f64 {
        (self.right().min(other.right()) - self.x.max(other.x)).max(0.0)
    }

    /// Returns this rectangle translated by `(dx, dy)`.
    pub fn translated(&self, dx: f64, dy: f64) -> Rect {
        Rect::new(self.x + dx, self.y + dy, self.width, self.height)
    }

    /// Returns the smallest rectangle containing both `self` and `other`.
    pub fn union(&self, other: &Rect) -> Rect {
        let x = self.x.min(other.x);
        let y = self.y.min(other.y);
        let right = self.right().max(other.right());
        let top = self.top().max(other.top());
        Rect::new(x, y, right - x, top - y)
    }
}

/// Placement orientation of a cell instance.
///
/// AQFP cells are placed in rows that all share the same clock wiring
/// direction, so only the identity and a horizontal mirror are used by the
/// flow; the remaining variants exist for GDSII round-tripping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Orientation {
    /// No transformation (north).
    #[default]
    R0,
    /// Rotated 180 degrees.
    R180,
    /// Mirrored about the Y axis.
    MirrorY,
    /// Mirrored about the X axis.
    MirrorX,
}

impl Orientation {
    /// All orientations, useful for exhaustive tests.
    pub const ALL: [Orientation; 4] =
        [Orientation::R0, Orientation::R180, Orientation::MirrorY, Orientation::MirrorX];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manhattan_distance_is_symmetric() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(-3.0, 7.5);
        assert_eq!(a.manhattan_distance(b), b.manhattan_distance(a));
        assert_eq!(a.manhattan_distance(a), 0.0);
    }

    #[test]
    fn snapping_rounds_to_grid() {
        let p = Point::new(14.0, 26.0).snapped(10.0);
        assert_eq!(p, Point::new(10.0, 30.0));
    }

    #[test]
    #[should_panic(expected = "grid must be positive")]
    fn snapping_rejects_zero_grid() {
        Point::new(1.0, 1.0).snapped(0.0);
    }

    #[test]
    fn rect_contains_boundary() {
        let r = Rect::new(0.0, 0.0, 10.0, 10.0);
        assert!(r.contains(Point::new(0.0, 0.0)));
        assert!(r.contains(Point::new(10.0, 10.0)));
        assert!(!r.contains(Point::new(10.1, 0.0)));
    }

    #[test]
    fn rect_overlap_excludes_abutment() {
        let a = Rect::new(0.0, 0.0, 10.0, 10.0);
        let b = Rect::new(10.0, 0.0, 10.0, 10.0);
        assert!(!a.overlaps(&b), "abutting rectangles do not overlap");
        let c = Rect::new(9.9, 0.0, 10.0, 10.0);
        assert!(a.overlaps(&c));
    }

    #[test]
    fn bounding_box_of_points() {
        let bb = Rect::bounding_box(vec![
            Point::new(5.0, 5.0),
            Point::new(-5.0, 0.0),
            Point::new(2.0, 12.0),
        ])
        .expect("non-empty");
        assert_eq!(bb.x, -5.0);
        assert_eq!(bb.y, 0.0);
        assert_eq!(bb.right(), 5.0);
        assert_eq!(bb.top(), 12.0);
        assert_eq!(bb.half_perimeter(), 22.0);
        assert!(Rect::bounding_box(std::iter::empty()).is_none());
    }

    #[test]
    fn union_covers_both() {
        let a = Rect::new(0.0, 0.0, 5.0, 5.0);
        let b = Rect::new(10.0, 10.0, 5.0, 5.0);
        let u = a.union(&b);
        assert!(u.contains(Point::new(0.0, 0.0)));
        assert!(u.contains(Point::new(15.0, 15.0)));
        assert_eq!(u.area(), 225.0);
    }

    #[test]
    fn x_overlap_length() {
        let a = Rect::new(0.0, 0.0, 10.0, 10.0);
        let b = Rect::new(6.0, 0.0, 10.0, 10.0);
        assert_eq!(a.x_overlap(&b), 4.0);
        let c = Rect::new(20.0, 0.0, 10.0, 10.0);
        assert_eq!(a.x_overlap(&c), 0.0);
    }
}
