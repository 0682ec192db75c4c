//! VANET node identity and exterior vehicle characteristics.
//!
//! Each vehicle is a node of the VANET (Section III-B). Its `VehicleId` is
//! the built-in radio identity used by the V2V/V2I exchanges — it is *not*
//! ownership data (no VIN, no registration), matching the paper's privacy
//! constraint. What checkpoints *see* is the vehicle's exterior
//! characteristics ([`VehicleClass`]): color, brand and body type, as
//! recognised by the intersection cameras (refs \[2\], \[3\]).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Radio identity of a vehicle's built-in VANET equipment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VehicleId(pub u64);

impl VehicleId {
    /// Dense index for per-vehicle arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VehicleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "veh{}", self.0)
    }
}

/// Exterior paint color as seen by checkpoint surveillance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Color {
    White,
    Black,
    Silver,
    Red,
    Blue,
    Green,
    Yellow,
}

/// Body type as seen by checkpoint surveillance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum BodyType {
    Sedan,
    Suv,
    Van,
    BoxTruck,
    Pickup,
    Bus,
    PatrolCar,
}

/// Brand badge as seen by checkpoint surveillance (a small closed set is
/// enough for the counting-by-type extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Brand {
    Apex,
    Borealis,
    Cascade,
    Dynamo,
    Everest,
}

/// Exterior characteristics of a vehicle — everything a checkpoint is
/// allowed to know about it (Section II: "only exterior characteristics of
/// the vehicle such as color, brand, and type are used").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VehicleClass {
    /// Paint color.
    pub color: Color,
    /// Brand badge.
    pub brand: Brand,
    /// Body type.
    pub body: BodyType,
}

impl VehicleClass {
    /// The paper's motivating search target: "Does anyone see that white
    /// van?" (Beltway sniper case study).
    pub const WHITE_VAN: VehicleClass = VehicleClass {
        color: Color::White,
        brand: Brand::Cascade,
        body: BodyType::Van,
    };

    /// A marked police patrol car. Patrol cars are never counted by any
    /// checkpoint but relay statuses (Theorem 3).
    pub const PATROL: VehicleClass = VehicleClass {
        color: Color::Blue,
        brand: Brand::Apex,
        body: BodyType::PatrolCar,
    };

    /// Whether this is a patrol car.
    pub fn is_patrol(&self) -> bool {
        self.body == BodyType::PatrolCar
    }

    /// The class as one small integer, `(color × 5 + brand) × 7 + body`
    /// over the variants' declaration order: 245 codes in all. Snapshots
    /// store classes this way.
    pub fn code(&self) -> u8 {
        (self.color as u8 * 5 + self.brand as u8) * 7 + self.body as u8
    }

    /// The class whose [`VehicleClass::code`] is `code`, or `None` past
    /// the 245 codes.
    pub fn from_code(code: u8) -> Option<VehicleClass> {
        use {BodyType::*, Brand::*, Color::*};
        const COLORS: [Color; 7] = [White, Black, Silver, Red, Blue, Green, Yellow];
        const BRANDS: [Brand; 5] = [Apex, Borealis, Cascade, Dynamo, Everest];
        const BODIES: [BodyType; 7] = [Sedan, Suv, Van, BoxTruck, Pickup, Bus, PatrolCar];
        let (code, body) = (usize::from(code / 7), BODIES[usize::from(code % 7)]);
        Some(VehicleClass {
            color: *COLORS.get(code / 5)?,
            brand: BRANDS[code % 5],
            body,
        })
    }
}

/// A filter over exterior characteristics, for the "counting a specified
/// type" extension. `None` fields are wildcards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ClassFilter {
    /// Match only this color (or any when `None`).
    pub color: Option<Color>,
    /// Match only this brand (or any when `None`).
    pub brand: Option<Brand>,
    /// Match only this body type (or any when `None`).
    pub body: Option<BodyType>,
}

impl ClassFilter {
    /// Matches every non-patrol vehicle — the paper's default "count all
    /// moving vehicles".
    pub const ALL: ClassFilter = ClassFilter {
        color: None,
        brand: None,
        body: None,
    };

    /// A filter for white vans of any brand.
    pub fn white_vans() -> ClassFilter {
        ClassFilter {
            color: Some(Color::White),
            brand: None,
            body: Some(BodyType::Van),
        }
    }

    /// Whether `class` passes the filter. Patrol cars never match: the
    /// paper exempts them from all counting.
    pub fn matches(&self, class: &VehicleClass) -> bool {
        if class.is_patrol() {
            return false;
        }
        self.color.is_none_or(|c| c == class.color)
            && self.brand.is_none_or(|b| b == class.brand)
            && self.body.is_none_or(|b| b == class.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_filter_matches_civilian_vehicles() {
        let sedan = VehicleClass {
            color: Color::Red,
            brand: Brand::Dynamo,
            body: BodyType::Sedan,
        };
        assert!(ClassFilter::ALL.matches(&sedan));
        assert!(ClassFilter::ALL.matches(&VehicleClass::WHITE_VAN));
    }

    #[test]
    fn patrol_cars_are_never_counted() {
        assert!(!ClassFilter::ALL.matches(&VehicleClass::PATROL));
        assert!(!ClassFilter::white_vans().matches(&VehicleClass::PATROL));
    }

    #[test]
    fn white_van_filter_is_selective() {
        let f = ClassFilter::white_vans();
        assert!(f.matches(&VehicleClass::WHITE_VAN));
        let white_sedan = VehicleClass {
            color: Color::White,
            brand: Brand::Cascade,
            body: BodyType::Sedan,
        };
        assert!(!f.matches(&white_sedan));
        let red_van = VehicleClass {
            color: Color::Red,
            brand: Brand::Cascade,
            body: BodyType::Van,
        };
        assert!(!f.matches(&red_van));
    }

    #[test]
    fn brand_wildcard_accepts_any_brand() {
        let f = ClassFilter::white_vans();
        for brand in [Brand::Apex, Brand::Borealis, Brand::Everest] {
            let van = VehicleClass {
                color: Color::White,
                brand,
                body: BodyType::Van,
            };
            assert!(f.matches(&van));
        }
    }

    #[test]
    fn exact_filter_matches_exactly_one_class() {
        let f = ClassFilter {
            color: Some(Color::Black),
            brand: Some(Brand::Apex),
            body: Some(BodyType::Suv),
        };
        let yes = VehicleClass {
            color: Color::Black,
            brand: Brand::Apex,
            body: BodyType::Suv,
        };
        let no = VehicleClass {
            color: Color::Black,
            brand: Brand::Apex,
            body: BodyType::Pickup,
        };
        assert!(f.matches(&yes));
        assert!(!f.matches(&no));
    }

    #[test]
    fn class_codes_round_trip_and_end_at_245() {
        for code in 0..=u8::MAX {
            match VehicleClass::from_code(code) {
                Some(class) => assert_eq!(class.code(), code),
                None => assert!(code >= 245, "code {code} has no class"),
            }
        }
        assert_eq!(VehicleClass::from_code(244).map(|c| c.code()), Some(244));
    }
}
